#include "core/value.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trdse::core {

namespace {

/// Normalized signed surplus of `meas` against `limit` for a >= spec:
/// positive when satisfied. The (|m|+|l|) denominator is the AutoCkt
/// normalization, robust to measurements that live in dB (can be negative).
double normalizedSurplus(double meas, double limit, SpecKind kind) {
  const double denom = std::abs(meas) + std::abs(limit) + 1e-12;
  const double surplus = (kind == SpecKind::kAtLeast) ? (meas - limit) : (limit - meas);
  return surplus / denom;
}

}  // namespace

ValueFunction::ValueFunction(const std::vector<std::string>& measurementNames,
                             const std::vector<Spec>& specs) {
  bound_.reserve(specs.size());
  for (const auto& s : specs) {
    const auto it = std::find(measurementNames.begin(), measurementNames.end(),
                              s.measurement);
    if (it == measurementNames.end())
      throw std::invalid_argument(
          "ValueFunction: spec references unknown measurement \"" +
          s.measurement + "\"");
    bound_.push_back({static_cast<std::size_t>(it - measurementNames.begin()),
                      s.kind, s.limit});
  }
}

double ValueFunction::operator()(const linalg::Vector& measurements) const {
  double v = 0.0;
  for (const auto& b : bound_) {
    const double s = normalizedSurplus(measurements[b.measIndex], b.limit, b.kind);
    v += std::min(0.0, s);
  }
  return v;
}

double ValueFunction::valueOf(const EvalResult& r) const {
  if (!r.ok) return kFailedValue;
  return (*this)(r.measurements);
}

bool ValueFunction::satisfied(const linalg::Vector& measurements) const {
  for (const auto& b : bound_) {
    if (normalizedSurplus(measurements[b.measIndex], b.limit, b.kind) < 0.0)
      return false;
  }
  return true;
}

std::vector<double> ValueFunction::perSpecScores(
    const linalg::Vector& measurements) const {
  std::vector<double> s(bound_.size());
  for (std::size_t i = 0; i < bound_.size(); ++i)
    s[i] = std::min(0.0, normalizedSurplus(measurements[bound_[i].measIndex],
                                           bound_[i].limit, bound_[i].kind));
  return s;
}

double ValueFunction::plannerScore(const linalg::Vector& measurements) const {
  return plannerScore(measurements.data());
}

double ValueFunction::plannerScore(const double* measurements) const {
  double v = 0.0;
  double bonus = 0.0;
  for (const auto& b : bound_) {
    const double s = normalizedSurplus(measurements[b.measIndex], b.limit, b.kind);
    v += std::min(0.0, s);
    bonus += std::clamp(s, 0.0, 0.3);
  }
  return v + marginBonus_ * bonus;
}

double ValueFunction::weighted(const linalg::Vector& measurements,
                               const std::vector<double>& weights) const {
  assert(weights.size() == bound_.size());
  const std::vector<double> s = perSpecScores(measurements);
  double v = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) v += weights[i] * s[i];
  return v;
}

}  // namespace trdse::core
