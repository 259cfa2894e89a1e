#include "nn/optimizer.hpp"

#include <cmath>

namespace trdse::nn {

namespace {

/// One Adam update over a contiguous parameter block `w` whose moments start
/// at `m`/`v`. The consumed gradient `g` is zeroed in the same pass. Every
/// per-element expression is the one the flat-vector update used, so the
/// parameter stream is unchanged bit for bit.
void adamBlock(double* TRDSE_RESTRICT w, double* TRDSE_RESTRICT g,
               double* TRDSE_RESTRICT m, double* TRDSE_RESTRICT v,
               std::size_t n, double beta1, double beta2, double bc1,
               double bc2, double eps, double alpha) {
  for (std::size_t i = 0; i < n; ++i) {
    const double gi = g[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
    const double mHat = m[i] / bc1;
    const double vHat = v[i] / bc2;
    const double update = mHat / (std::sqrt(vHat) + eps);
    w[i] += alpha * update;
    g[i] = 0.0;
  }
}

}  // namespace

AdamOptimizer::AdamOptimizer(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void AdamOptimizer::reset() {
  t_ = 0;
  m_.clear();
  v_.clear();
}

void AdamOptimizer::step(Mlp& net) {
  const std::size_t n = net.parameterCount();
  if (m_.size() != n) {
    m_.assign(n, 0.0);
    v_.assign(n, 0.0);
    t_ = 0;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // Moments keep the flat layout (layer by layer, weights then bias), so
  // checkpoints written before and after this walk are interchangeable.
  std::size_t off = 0;
  for (auto& layer : net.layers()) {
    linalg::Matrix& w = layer.weights();
    adamBlock(w.data(), layer.gradWeights().data(), m_.data() + off,
              v_.data() + off, w.size(), beta1_, beta2_, bc1, bc2, eps_, -lr_);
    off += w.size();
    linalg::Vector& b = layer.bias();
    adamBlock(b.data(), layer.gradBias().data(), m_.data() + off,
              v_.data() + off, b.size(), beta1_, beta2_, bc1, bc2, eps_, -lr_);
    off += b.size();
  }
}

}  // namespace trdse::nn
