// Algorithm 1 line 10: Monte Carlo planning inside the trust region on the
// per-corner surrogates (paper IV-B, Eq. 5).
#pragma once

#include <optional>
#include <random>
#include <span>
#include <vector>

#include "core/problem.hpp"
#include "core/surrogate.hpp"
#include "core/value.hpp"
#include "linalg/matrix.hpp"

namespace trdse::common {
class ThreadPool;
}  // namespace trdse::common

namespace trdse::core {

/// toUnit(fromUnitSnapped(u)) by table, the planner's per-candidate snap.
///
/// The snapped unit value of a coordinate depends only on its variable and
/// grid index, so the constructor tabulates valueToUnit(gridValue(i, k)) and
/// snap() only finds the index. On a log-scale axis the exact
/// index, nearestIndex(i, unitToValue(i, u)), goes through pow and log10; the
/// table reads it straight from y = log10(lo) + t·(log10(hi) − log10(lo)) as
/// round((y − log10(lo))·(steps − 1)/(log10(hi) − log10(lo))). That value
/// differs from the exact path's by the pow/log10 round trip, a few ulps of
/// y, so whenever it lies within guard(i) grid steps of a rounding tie the
/// coordinate takes the exact path instead. The guard bounds the round trip
/// with a margin of about 10^6, and an axis whose guard is not small (and
/// every linear axis, whose exact index needs no transcendental) always takes
/// the exact path. The result is bitwise the composition's.
class SnapTable {
 public:
  /// Tabulates `space`.
  explicit SnapTable(const DesignSpace& space);

  /// Number of variables of the tabulated space.
  std::size_t dim() const { return axes_.size(); }

  /// toUnit(fromUnitSnapped(u)) of one point of `space`, the tabulated space,
  /// written into `out` (which may alias `u`).
  void snap(const DesignSpace& space, const double* u, double* out) const;

  /// Half-width, in grid steps, of the band around each rounding tie of
  /// variable `dim` where snap() takes the exact path; +inf for an axis that
  /// always does.
  double guard(std::size_t dim) const { return axes_[dim].guard; }

 private:
  struct Axis {
    std::size_t offset = 0;  ///< first table entry of the axis
    std::size_t last = 0;    ///< steps − 1
    double logLo = 0.0;      ///< log10(lo)
    double logSpan = 0.0;    ///< log10(hi) − log10(lo)
    double scale = 0.0;      ///< (steps − 1) / logSpan
    double guard = 0.0;
  };

  std::vector<Axis> axes_;
  std::vector<double> unit_;  ///< valueToUnit(gridValue(i, k)), axis by axis
};

/// Algorithm 1 line 10, PvtSearch's planner: Monte Carlo candidates in the
/// trust region, scored on one or more surrogates, keeping the candidate
/// whose lowest planner score across them is highest (the paper's "lowest
/// expected value" rule for a PVT pool).
///
/// A plan draws its uniforms serially from the caller's rng, then snaps and
/// scores the block in row chunks — concurrently when given a pool. Chunks
/// start at multiples of linalg::kGemmRowTile and each has its own scratch,
/// per-candidate scores reduce by min in surrogate order, and the pick is a
/// serial first-best scan, so the result is bitwise the same for any pool.
/// A planner plans on one space: the first plan tabulates its SnapTable, on
/// the calling thread before the chunks fan out.
class CandidatePlanner {
 public:
  /// Draw `count` candidates uniformly in the infinity-norm ball of `radius`
  /// around `centerUnit` (candidate-major, dimension-minor), clamp each to
  /// the unit cube and snap it onto the grid, so the planned point is the
  /// simulated point: row s equals the per-sample draw
  /// `toUnit(fromUnitSnapped(clamp(center + radius * unif)))` bitwise. Score
  /// row s as the min over `surrogates` of value.plannerScore(prediction)
  /// (+inf with no surrogates). Returns the first row with the highest
  /// finite score, or `count` when none scored. `pool` (may be null: inline)
  /// runs the chunks; on a pool of N threads the block splits into N chunks.
  std::size_t plan(const DesignSpace& space, const ValueFunction& value,
                   std::span<const SpiceSurrogate* const> surrogates,
                   const linalg::Vector& centerUnit, double radius,
                   std::size_t count, std::mt19937_64& rng,
                   common::ThreadPool* pool);

  /// The last plan's snapped candidates, one unit-space row each.
  const linalg::Matrix& candidates() const { return cand_; }
  /// The last plan's per-candidate scores (min over the surrogates).
  const std::vector<double>& scores() const { return scores_; }

 private:
  /// One row chunk's scratch: its candidates, their predictions, and the
  /// surrogate workspace — never shared between concurrent chunks.
  struct Chunk {
    linalg::Matrix x;
    linalg::Matrix pred;
    SpiceSurrogate::PredictWorkspace ws;
  };

  std::optional<SnapTable> snap_;
  linalg::Matrix cand_;
  std::vector<double> scores_;
  std::vector<Chunk> chunks_;
};

}  // namespace trdse::core
