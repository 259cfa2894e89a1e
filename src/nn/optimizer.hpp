// The first-order optimizer over an Mlp's flat parameter space.
#pragma once

#include "nn/mlp.hpp"

namespace trdse::nn {

/// Adam (Kingma & Ba) — the optimizer of both the surrogate f_NN and the RL
/// baselines' actor/critic networks. A step updates each layer's weights and
/// bias straight from that layer's gradient storage and zeroes it in the
/// same pass; nothing is copied or allocated after the first step.
class AdamOptimizer {
 public:
  /// Configure step size and moment decay rates.
  explicit AdamOptimizer(double lr, double beta1 = 0.9, double beta2 = 0.999,
                         double eps = 1e-8);
  /// Apply one update using the gradients currently accumulated in `net`,
  /// then zero them.
  void step(Mlp& net);
  /// Drop all optimizer state (moments, step counter).
  void reset();

  // Checkpoint access: Adam's state is (step count, first/second moments);
  // restoring it mid-training resumes the exact bias-corrected update stream.

  /// Updates applied so far (the bias-correction exponent).
  long stepCount() const { return t_; }
  /// First-moment estimate (flat parameter layout; empty before any step).
  const linalg::Vector& firstMoments() const { return m_; }
  /// Second-moment estimate (flat parameter layout; empty before any step).
  const linalg::Vector& secondMoments() const { return v_; }
  /// Install checkpointed state; empty moments mean a freshly-reset optimizer.
  void restoreState(long t, linalg::Vector m, linalg::Vector v) {
    t_ = t;
    m_ = std::move(m);
    v_ = std::move(v);
  }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  long t_ = 0;
  linalg::Vector m_;
  linalg::Vector v_;
};

}  // namespace trdse::nn
