// Value (reward) engineering — paper Section IV-D.
//
// "In the spirit of simplicity and generalization, we utilize a naive tactic
//  where the value is the sum of normalized measurements."
//
// Each spec contributes a normalized deficit clipped at zero, so the value is
// 0 exactly when every constraint holds (the CSP is solved) and strictly
// negative otherwise. Values steer planning only — they never enter surrogate
// training — which is why the paper can claim insensitivity to reward
// engineering.
#pragma once

#include <vector>

#include "core/problem.hpp"

namespace trdse::core {

/// Sentinel value for points whose simulation failed (never chosen over any
/// point that simulated successfully).
inline constexpr double kFailedValue = -1e9;

/// The paper's Value function: maps a measurement vector to a scalar that is
/// 0 exactly when the CSP is satisfied and negative otherwise.
class ValueFunction {
 public:
  /// Bind each spec to its measurement index.
  ValueFunction(const std::vector<std::string>& measurementNames,
                const std::vector<Spec>& specs);

  /// Sum of per-spec normalized deficits; 0 iff all specs satisfied.
  double operator()(const linalg::Vector& measurements) const;

  /// Value of an EvalResult (kFailedValue when !ok).
  double valueOf(const EvalResult& r) const;

  /// Whether every spec holds for the given measurements.
  bool satisfied(const linalg::Vector& measurements) const;

  /// Per-spec normalized score (each <= 0); useful for telemetry and for the
  /// optional second-stage weighted value (paper IV-D).
  std::vector<double> perSpecScores(const linalg::Vector& measurements) const;

  /// Weighted variant: sum_i w_i * score_i. Weights size must match specs.
  double weighted(const linalg::Vector& measurements,
                  const std::vector<double>& weights) const;

  /// Planning score: the value plus a small bonus for positive margin
  /// (clipped), so the Monte Carlo planner prefers candidates comfortably
  /// inside the feasible region over ones exactly on its boundary. This is
  /// the paper's optional "second-stage value function" (IV-D); the bonus is
  /// small enough never to outweigh a constraint violation.
  double plannerScore(const linalg::Vector& measurements) const;
  /// plannerScore of a measurement row read in place (e.g. one row of a
  /// batched prediction matrix).
  double plannerScore(const double* measurements) const;

  /// Weight of the margin bonus in plannerScore (0 disables the second-stage
  /// tie-break; exposed for the value-engineering ablation bench).
  void setMarginBonus(double bonus) { marginBonus_ = bonus; }
  /// Current margin-bonus weight.
  double marginBonus() const { return marginBonus_; }

 private:
  struct BoundSpec {
    std::size_t measIndex;
    SpecKind kind;
    double limit;
  };
  std::vector<BoundSpec> bound_;
  double marginBonus_ = 0.02;
};

}  // namespace trdse::core
