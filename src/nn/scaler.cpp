#include "nn/scaler.hpp"

#include <cassert>
#include <cmath>

namespace trdse::nn {

MinMaxScaler::MinMaxScaler(linalg::Vector lo, linalg::Vector hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  assert(lo_.size() == hi_.size());
  for (std::size_t i = 0; i < lo_.size(); ++i) assert(hi_[i] >= lo_[i]);
}

linalg::Vector MinMaxScaler::transform(const linalg::Vector& x) const {
  assert(x.size() == lo_.size());
  linalg::Vector z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double span = hi_[i] - lo_[i];
    z[i] = span > 0.0 ? 2.0 * (x[i] - lo_[i]) / span - 1.0 : 0.0;
  }
  return z;
}

linalg::Vector MinMaxScaler::inverse(const linalg::Vector& z) const {
  assert(z.size() == lo_.size());
  linalg::Vector x(z.size());
  for (std::size_t i = 0; i < z.size(); ++i)
    x[i] = lo_[i] + (z[i] + 1.0) * 0.5 * (hi_[i] - lo_[i]);
  return x;
}

void MinMaxScaler::transform(const linalg::Matrix& x, linalg::Matrix& out) const {
  assert(x.cols() == lo_.size());
  out.resize(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.row(r);
    double* zr = out.row(r);
    for (std::size_t i = 0; i < x.cols(); ++i) {
      const double span = hi_[i] - lo_[i];
      zr[i] = span > 0.0 ? 2.0 * (xr[i] - lo_[i]) / span - 1.0 : 0.0;
    }
  }
}

void MinMaxScaler::inverse(const linalg::Matrix& z, linalg::Matrix& out) const {
  assert(z.cols() == lo_.size());
  out.resize(z.rows(), z.cols());
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const double* zr = z.row(r);
    double* xr = out.row(r);
    for (std::size_t i = 0; i < z.cols(); ++i)
      xr[i] = lo_[i] + (zr[i] + 1.0) * 0.5 * (hi_[i] - lo_[i]);
  }
}

void Standardizer::fit(const std::vector<linalg::Vector>& samples) {
  assert(!samples.empty());
  const std::size_t d = samples.front().size();
  mean_.assign(d, 0.0);
  std_.assign(d, 0.0);
  for (const auto& s : samples) {
    assert(s.size() == d);
    for (std::size_t i = 0; i < d; ++i) mean_[i] += s[i];
  }
  for (double& m : mean_) m /= static_cast<double>(samples.size());
  for (const auto& s : samples)
    for (std::size_t i = 0; i < d; ++i) {
      const double dd = s[i] - mean_[i];
      std_[i] += dd * dd;
    }
  for (double& v : std_) {
    v = std::sqrt(v / static_cast<double>(samples.size()));
    if (v < 1e-12) v = 1.0;  // degenerate dimension: centre only
  }
}

linalg::Vector Standardizer::transform(const linalg::Vector& x) const {
  assert(x.size() == mean_.size());
  linalg::Vector z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = (x[i] - mean_[i]) / std_[i];
  return z;
}

linalg::Vector Standardizer::inverse(const linalg::Vector& z) const {
  assert(z.size() == mean_.size());
  linalg::Vector x(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) x[i] = z[i] * std_[i] + mean_[i];
  return x;
}

void Standardizer::transform(const linalg::Matrix& x, linalg::Matrix& out) const {
  assert(x.cols() == mean_.size());
  out.resize(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.row(r);
    double* zr = out.row(r);
    for (std::size_t i = 0; i < x.cols(); ++i)
      zr[i] = (xr[i] - mean_[i]) / std_[i];
  }
}

void Standardizer::transform(const std::vector<linalg::Vector>& samples,
                             linalg::Matrix& out) const {
  out.resize(samples.size(), mean_.size());
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const linalg::Vector& x = samples[r];
    assert(x.size() == mean_.size());
    double* zr = out.row(r);
    for (std::size_t i = 0; i < x.size(); ++i) zr[i] = (x[i] - mean_[i]) / std_[i];
  }
}

void Standardizer::inverse(const linalg::Matrix& z, linalg::Matrix& out) const {
  assert(z.cols() == mean_.size());
  out.resize(z.rows(), z.cols());
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const double* zr = z.row(r);
    double* xr = out.row(r);
    for (std::size_t i = 0; i < z.cols(); ++i)
      xr[i] = zr[i] * std_[i] + mean_[i];
  }
}

void Standardizer::set(linalg::Vector mean, linalg::Vector std) {
  assert(mean.size() == std.size());
  mean_ = std::move(mean);
  std_ = std::move(std);
}

}  // namespace trdse::nn
