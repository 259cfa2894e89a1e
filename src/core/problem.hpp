// Designer-facing problem definition (paper Section III & IV-F).
//
// The paper's API asks designers for exactly: the sizes to tune, their
// ranges, the topology (an evaluation callback here), the measurements to
// observe, and per-corner specifications. This header is that contract; every
// agent in the repo (trust-region, BO, RL, random) consumes only these types.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/fault.hpp"
#include "sim/process.hpp"

namespace trdse::core {

/// One tunable size variable with a discrete grid over [lo, hi]; log-scale
/// grids suit widths/currents/capacitances that span decades.
struct ParamDef {
  std::string name;        ///< designer-facing variable name
  double lo = 0.0;         ///< lower bound of the grid
  double hi = 1.0;         ///< upper bound of the grid
  std::size_t steps = 64;  ///< number of grid points across [lo, hi]
  bool logScale = false;   ///< geometric (log-spaced) grid when true
};

/// The CSP domain D: a grid per variable (Eq. 2's D_i).
class DesignSpace {
 public:
  DesignSpace() = default;
  /// Build from per-variable grid definitions.
  explicit DesignSpace(std::vector<ParamDef> params);

  /// Number of tunable variables.
  std::size_t dim() const { return params_.size(); }
  /// All variable definitions, in declaration order.
  const std::vector<ParamDef>& params() const { return params_; }
  /// Definition of variable `i`.
  const ParamDef& param(std::size_t i) const { return params_[i]; }

  /// Grid value of variable `dim` at index `idx` (0 .. steps-1).
  double gridValue(std::size_t dim, std::size_t idx) const;

  /// Nearest grid index for a raw value (clamped into range).
  std::size_t nearestIndex(std::size_t dim, double value) const;

  /// Snap a raw point onto the grid.
  linalg::Vector snap(const linalg::Vector& x) const;

  /// Uniformly random grid point.
  linalg::Vector randomPoint(std::mt19937_64& rng) const;

  /// Map to/from normalized [0,1]^d coordinates (log-aware). All agents plan
  /// in unit coordinates so trust-region radii are scale-free.
  linalg::Vector toUnit(const linalg::Vector& x) const;
  linalg::Vector fromUnit(const linalg::Vector& u) const;
  /// fromUnit + snap, with unit coordinates clamped into [0,1].
  linalg::Vector fromUnitSnapped(const linalg::Vector& u) const;
  /// fromUnit of one coordinate of variable `dim` (clamped into [0,1]).
  double unitToValue(std::size_t dim, double u) const;
  /// toUnit of one coordinate of variable `dim`.
  double valueToUnit(std::size_t dim, double x) const;

  /// log10 of the number of grid combinations ("design space size 10^14").
  double sizeLog10() const;

  /// Index vector of a (snapped) point.
  std::vector<std::size_t> indicesOf(const linalg::Vector& x) const;
  /// Grid point at the given per-variable indices.
  linalg::Vector fromIndices(const std::vector<std::size_t>& idx) const;

 private:
  /// log10 of a log-scale variable's bounds, computed once at construction
  /// (zero for linear variables, which never read them).
  struct LogBounds {
    double lo = 0.0;
    double hi = 0.0;
  };

  std::vector<ParamDef> params_;
  std::vector<LogBounds> logBounds_;
};

/// Direction of a spec constraint: measurement >= limit or <= limit.
enum class SpecKind : std::uint8_t { kAtLeast, kAtMost };

/// One constraint C_j = (measurement, relation) of the CSP (Eq. 2).
struct Spec {
  std::string measurement;  ///< must match a measurement name
  SpecKind kind = SpecKind::kAtLeast;  ///< constraint direction
  double limit = 0.0;                  ///< spec limit in measurement units
};

/// Outcome of one SPICE evaluation. `ok == false` with `failure == kNone`
/// models *deterministic* non-convergence — the point does not bias, a
/// property of the sizing itself: no measurements exist and agents must treat
/// the point as infeasible without feeding it to surrogate training. A
/// non-kNone `failure` instead marks a *fault* (timeout, transient solver
/// failure, non-finite output — see sim/fault.hpp): the result is untrusted,
/// never cached, and the EvalEngine retries it under its RetryPolicy before
/// surfacing the exhausted failure here.
struct EvalResult {
  bool ok = false;              ///< the simulation converged
  linalg::Vector measurements;  ///< one entry per measurement name
  /// Why the evaluation cannot be trusted (kNone = clean result). Set by
  /// fault injection, deadline detection, or the engine's non-finite guard.
  sim::FaultClass failure = sim::FaultClass::kNone;
};

/// Evaluate a sizing under one PVT condition — the paper's Spice(X) function.
using CornerEvalFn =
    std::function<EvalResult(const linalg::Vector& sizes, const sim::PvtCorner&)>;

/// Fused batch evaluation: `count` (sizing, corner) operating points in a
/// single call, results written to `results[0..count)`. Slot i's sizing is
/// `*sizes[i]` — slots are free to mix sizings, which is what lets the
/// EvalEngine pack miss lanes across requests instead of padding ragged
/// per-sizing tails. The contract is bitwise equivalence — slot i must hold
/// exactly what the CornerEvalFn returns for (*sizes[i], corners[i]), whatever
/// else shares the call — so an engine over either function (see
/// eval::CallbackBackend) reaches the same outcome. The registry circuits
/// meet it with one pipeline: their CornerEvalFn is a one-slot call of it.
/// Implementations handle arbitrary `count` by chunking into their native
/// lane width internally (sim::kSimLanes for the registry circuits).
using CornerBatchEvalFn =
    std::function<void(const linalg::Vector* const* sizes,
                       const sim::PvtCorner* corners, EvalResult* results,
                       std::size_t count)>;

/// The full designer contract (paper IV-F).
struct SizingProblem {
  std::string name;                           ///< label used in reports
  DesignSpace space;                          ///< tunable sizes and ranges
  std::vector<std::string> measurementNames;  ///< order of EvalResult entries
  std::vector<Spec> specs;                    ///< the CSP constraints
  std::vector<sim::PvtCorner> corners;        ///< sign-off conditions
  CornerEvalFn evaluate;                      ///< the Spice(X) callback
  /// Optional fused corner-batch path (bitwise identical to `evaluate` per
  /// slot). Set by circuits that implement a batched simulator backend; left
  /// empty by plain callback problems, which then evaluate corner by corner.
  CornerBatchEvalFn evaluateBatch;
  /// Optional layout-area estimator (Tables IV/V report area).
  std::function<double(const linalg::Vector&)> area;

  /// Position of `name` in measurementNames; throws std::invalid_argument
  /// naming the unknown measurement (and listing the known ones) when absent
  /// — a typo in a spec name fails loudly in every build type.
  std::size_t measurementIndex(const std::string& name) const;
};

}  // namespace trdse::core
