// Trajectory storage with local-region selection (the paper's compact
// circuit space D_L): surrogates train only on samples near the current
// trust-region center, with a nearest-K fallback when the region is sparse.
// PvtSearch keeps one per active corner.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace trdse::core {

/// Append-only trajectory of (unit-space sizing, measurement) pairs with
/// locality-based selection.
class LocalDataset {
 public:
  /// Append one successful sample.
  void add(linalg::Vector unitX, linalg::Vector measurements) {
    unit_.push_back(std::move(unitX));
    meas_.push_back(std::move(measurements));
  }

  /// Drop every stored sample.
  void clear() {
    unit_.clear();
    meas_.clear();
  }

  /// Number of stored samples.
  std::size_t size() const { return unit_.size(); }
  /// Whether no samples are stored.
  bool empty() const { return unit_.empty(); }

  /// A paired subset of the trajectory, ready for surrogate training.
  struct Selection {
    std::vector<linalg::Vector> inputs;   ///< unit-space sizings
    std::vector<linalg::Vector> targets;  ///< raw measurement vectors
  };

  /// Samples within `cut` (infinity norm) of `center`; when fewer than
  /// `minCount` qualify, the nearest `minCount` samples are returned instead.
  Selection selectLocal(const linalg::Vector& center, double cut,
                        std::size_t minCount) const;

  /// Stored unit-space sizings, in insertion order (checkpoint access).
  const std::vector<linalg::Vector>& inputs() const { return unit_; }
  /// Stored measurement vectors, parallel to inputs() (checkpoint access).
  const std::vector<linalg::Vector>& targets() const { return meas_; }

 private:
  std::vector<linalg::Vector> unit_;
  std::vector<linalg::Vector> meas_;
};

}  // namespace trdse::core
