#include "nn/distribution.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace trdse::nn {

linalg::Vector softmax(const linalg::Vector& logits) {
  assert(!logits.empty());
  const double mx = *std::max_element(logits.begin(), logits.end());
  linalg::Vector p(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(logits[i] - mx);
    sum += p[i];
  }
  for (double& v : p) v /= sum;
  return p;
}

linalg::Vector logSoftmax(const linalg::Vector& logits) {
  assert(!logits.empty());
  const double mx = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double v : logits) sum += std::exp(v - mx);
  const double logZ = mx + std::log(sum);
  linalg::Vector lp(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) lp[i] = logits[i] - logZ;
  return lp;
}

std::size_t sampleCategorical(const linalg::Vector& logits, std::mt19937_64& rng) {
  const linalg::Vector p = softmax(logits);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  double r = u(rng);
  for (std::size_t i = 0; i < p.size(); ++i) {
    r -= p[i];
    if (r <= 0.0) return i;
  }
  return p.size() - 1;
}

double categoricalEntropy(const linalg::Vector& logits) {
  const linalg::Vector lp = logSoftmax(logits);
  double h = 0.0;
  for (double v : lp) h -= std::exp(v) * v;
  return h;
}

double categoricalKl(const linalg::Vector& logitsP, const linalg::Vector& logitsQ) {
  assert(logitsP.size() == logitsQ.size());
  const linalg::Vector lp = logSoftmax(logitsP);
  const linalg::Vector lq = logSoftmax(logitsQ);
  double kl = 0.0;
  for (std::size_t i = 0; i < lp.size(); ++i) kl += std::exp(lp[i]) * (lp[i] - lq[i]);
  return kl;
}

linalg::Vector logProbGrad(const linalg::Vector& logits, std::size_t action) {
  assert(action < logits.size());
  linalg::Vector g = softmax(logits);
  for (double& v : g) v = -v;
  g[action] += 1.0;
  return g;
}

void softmaxSegments(const linalg::Matrix& logits, std::size_t segment,
                     linalg::Matrix& out) {
  assert(segment > 0 && logits.cols() % segment == 0);
  out.resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const double* in = logits.row(r);
    double* o = out.row(r);
    for (std::size_t s0 = 0; s0 < logits.cols(); s0 += segment) {
      double mx = in[s0];
      for (std::size_t i = 1; i < segment; ++i) mx = std::max(mx, in[s0 + i]);
      double sum = 0.0;
      for (std::size_t i = 0; i < segment; ++i) {
        o[s0 + i] = std::exp(in[s0 + i] - mx);
        sum += o[s0 + i];
      }
      for (std::size_t i = 0; i < segment; ++i) o[s0 + i] /= sum;
    }
  }
}

void logSoftmaxSegments(const linalg::Matrix& logits, std::size_t segment,
                        linalg::Matrix& out) {
  assert(segment > 0 && logits.cols() % segment == 0);
  out.resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const double* in = logits.row(r);
    double* o = out.row(r);
    for (std::size_t s0 = 0; s0 < logits.cols(); s0 += segment) {
      double mx = in[s0];
      for (std::size_t i = 1; i < segment; ++i) mx = std::max(mx, in[s0 + i]);
      double sum = 0.0;
      for (std::size_t i = 0; i < segment; ++i) sum += std::exp(in[s0 + i] - mx);
      const double logZ = mx + std::log(sum);
      for (std::size_t i = 0; i < segment; ++i) o[s0 + i] = in[s0 + i] - logZ;
    }
  }
}

}  // namespace trdse::nn
