#include "core/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trdse::core {

DesignSpace::DesignSpace(std::vector<ParamDef> params) : params_(std::move(params)) {
  logBounds_.reserve(params_.size());
  for (const auto& p : params_) {
    assert(p.steps >= 1);
    assert(p.hi >= p.lo);
    assert(!p.logScale || p.lo > 0.0);
    logBounds_.push_back(p.logScale ? LogBounds{std::log10(p.lo), std::log10(p.hi)}
                                    : LogBounds{});
  }
}

double DesignSpace::gridValue(std::size_t dim, std::size_t idx) const {
  const ParamDef& p = params_[dim];
  assert(idx < p.steps);
  if (p.steps == 1) return p.lo;
  const double t = static_cast<double>(idx) / static_cast<double>(p.steps - 1);
  if (p.logScale) {
    const LogBounds& l = logBounds_[dim];
    return std::pow(10.0, l.lo + t * (l.hi - l.lo));
  }
  return p.lo + t * (p.hi - p.lo);
}

std::size_t DesignSpace::nearestIndex(std::size_t dim, double value) const {
  const ParamDef& p = params_[dim];
  // A degenerate range has one distinct grid value (and t below would be 0/0).
  if (p.steps == 1 || p.hi == p.lo) return 0;
  double t;
  if (p.logScale) {
    const LogBounds& l = logBounds_[dim];
    const double v = std::clamp(value, p.lo, p.hi);
    t = (std::log10(v) - l.lo) / (l.hi - l.lo);
  } else {
    t = (std::clamp(value, p.lo, p.hi) - p.lo) / (p.hi - p.lo);
  }
  const double idx = t * static_cast<double>(p.steps - 1);
  return static_cast<std::size_t>(std::lround(idx));
}

linalg::Vector DesignSpace::snap(const linalg::Vector& x) const {
  assert(x.size() == dim());
  linalg::Vector out(dim());
  for (std::size_t i = 0; i < dim(); ++i)
    out[i] = gridValue(i, nearestIndex(i, x[i]));
  return out;
}

linalg::Vector DesignSpace::randomPoint(std::mt19937_64& rng) const {
  linalg::Vector out(dim());
  for (std::size_t i = 0; i < dim(); ++i) {
    std::uniform_int_distribution<std::size_t> d(0, params_[i].steps - 1);
    out[i] = gridValue(i, d(rng));
  }
  return out;
}

double DesignSpace::valueToUnit(std::size_t dim, double x) const {
  const ParamDef& p = params_[dim];
  if (p.hi == p.lo) return 0.0;
  if (p.logScale) {
    const LogBounds& l = logBounds_[dim];
    return (std::log10(std::clamp(x, p.lo, p.hi)) - l.lo) / (l.hi - l.lo);
  }
  return (std::clamp(x, p.lo, p.hi) - p.lo) / (p.hi - p.lo);
}

double DesignSpace::unitToValue(std::size_t dim, double u) const {
  const ParamDef& p = params_[dim];
  const double t = std::clamp(u, 0.0, 1.0);
  if (p.logScale) {
    const LogBounds& l = logBounds_[dim];
    return std::pow(10.0, l.lo + t * (l.hi - l.lo));
  }
  return p.lo + t * (p.hi - p.lo);
}

linalg::Vector DesignSpace::toUnit(const linalg::Vector& x) const {
  assert(x.size() == dim());
  linalg::Vector u(dim());
  for (std::size_t i = 0; i < dim(); ++i) u[i] = valueToUnit(i, x[i]);
  return u;
}

linalg::Vector DesignSpace::fromUnit(const linalg::Vector& u) const {
  assert(u.size() == dim());
  linalg::Vector x(dim());
  for (std::size_t i = 0; i < dim(); ++i) x[i] = unitToValue(i, u[i]);
  return x;
}

linalg::Vector DesignSpace::fromUnitSnapped(const linalg::Vector& u) const {
  return snap(fromUnit(u));
}

void DesignSpace::snapUnit(const double* u, double* out) const {
  for (std::size_t i = 0; i < dim(); ++i) {
    // toUnit sends a degenerate range to 0 whatever the snapped value.
    if (params_[i].hi == params_[i].lo) {
      out[i] = 0.0;
      continue;
    }
    out[i] = valueToUnit(i, gridValue(i, nearestIndex(i, unitToValue(i, u[i]))));
  }
}

double DesignSpace::sizeLog10() const {
  double s = 0.0;
  for (const auto& p : params_) s += std::log10(static_cast<double>(p.steps));
  return s;
}

std::vector<std::size_t> DesignSpace::indicesOf(const linalg::Vector& x) const {
  assert(x.size() == dim());
  std::vector<std::size_t> idx(dim());
  for (std::size_t i = 0; i < dim(); ++i) idx[i] = nearestIndex(i, x[i]);
  return idx;
}

linalg::Vector DesignSpace::fromIndices(const std::vector<std::size_t>& idx) const {
  assert(idx.size() == dim());
  linalg::Vector x(dim());
  for (std::size_t i = 0; i < dim(); ++i) x[i] = gridValue(i, idx[i]);
  return x;
}

std::size_t SizingProblem::measurementIndex(const std::string& name) const {
  const auto it =
      std::find(measurementNames.begin(), measurementNames.end(), name);
  if (it == measurementNames.end()) {
    std::string known;
    for (const auto& m : measurementNames) {
      if (!known.empty()) known += ", ";
      known += m;
    }
    throw std::invalid_argument("SizingProblem::measurementIndex: unknown "
                                "measurement \"" +
                                name + "\" (known: " + known + ")");
  }
  return static_cast<std::size_t>(it - measurementNames.begin());
}

}  // namespace trdse::core
