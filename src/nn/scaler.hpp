// Feature scaling for the surrogate network.
//
// The sizing vector spans decades (widths in µm, capacitors in pF) and the
// measurement vector mixes dB, Hz and mW — raw MSE training would be dominated
// by whichever unit is numerically largest. MinMaxScaler maps sizes to [-1,1]
// from their declared ranges; Standardizer z-scores measurements from the
// trajectory collected so far.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace trdse::nn {

/// Affine map of each dimension from [lo_i, hi_i] to [-1, 1].
class MinMaxScaler {
 public:
  MinMaxScaler() = default;
  /// Bind per-dimension ranges.
  MinMaxScaler(linalg::Vector lo, linalg::Vector hi);

  /// Number of scaled dimensions.
  std::size_t dim() const { return lo_.size(); }
  /// Map a raw point into [-1, 1]^dim.
  linalg::Vector transform(const linalg::Vector& x) const;
  /// Map a scaled point back to raw units.
  linalg::Vector inverse(const linalg::Vector& z) const;

  /// Row-wise batched variants (each row one sample); `out` is resized and
  /// reuses capacity across calls.
  void transform(const linalg::Matrix& x, linalg::Matrix& out) const;
  void inverse(const linalg::Matrix& z, linalg::Matrix& out) const;

  /// Per-dimension lower bounds.
  const linalg::Vector& lo() const { return lo_; }
  /// Per-dimension upper bounds.
  const linalg::Vector& hi() const { return hi_; }

 private:
  linalg::Vector lo_;
  linalg::Vector hi_;
};

/// Per-dimension z-score normalizer fitted from samples; degenerate
/// dimensions (zero variance) pass through centred but unscaled.
class Standardizer {
 public:
  /// Estimate per-dimension mean/std from samples.
  void fit(const std::vector<linalg::Vector>& samples);
  /// Whether fit() (or set()) has been called.
  bool fitted() const { return !mean_.empty(); }
  /// Number of scaled dimensions.
  std::size_t dim() const { return mean_.size(); }

  /// z-score a raw point.
  linalg::Vector transform(const linalg::Vector& x) const;
  /// Undo the z-score transform.
  linalg::Vector inverse(const linalg::Vector& z) const;

  /// Row-wise batched variants (each row one sample); `out` is resized and
  /// reuses capacity across calls. Element-wise identical to the vector
  /// overloads applied per row.
  void transform(const linalg::Matrix& x, linalg::Matrix& out) const;
  void inverse(const linalg::Matrix& z, linalg::Matrix& out) const;
  /// z-score a sample list into the rows of `out` (resized; reuses capacity).
  void transform(const std::vector<linalg::Vector>& samples,
                 linalg::Matrix& out) const;

  /// Fitted per-dimension means.
  const linalg::Vector& mean() const { return mean_; }
  /// Fitted per-dimension standard deviations.
  const linalg::Vector& std() const { return std_; }
  /// Install precomputed statistics (deserialization).
  void set(linalg::Vector mean, linalg::Vector std);

 private:
  linalg::Vector mean_;
  linalg::Vector std_;
};

}  // namespace trdse::nn
