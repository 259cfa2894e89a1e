// Regression losses and the supervised mini-batch trainer used for the
// paper's surrogate training loop (Eq. 4: J(θ) = MSE against Spice(X)).
#pragma once

#include <random>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

namespace trdse::nn {

/// Mean-squared error over one sample pair.
double mseLoss(const linalg::Vector& pred, const linalg::Vector& target);

/// dMSE/dpred (factor 2/n included).
linalg::Vector mseGrad(const linalg::Vector& pred, const linalg::Vector& target);

/// Batched MSE over row-paired matrices: writes the per-sample gradient
/// matrix (each row = mseGrad of that row, scaled by `gradScale`) into
/// `grad` and returns the *sum* of per-row mseLoss values. Matches the
/// per-sample helpers row for row.
double mseLossGradBatch(const linalg::Matrix& pred, const linalg::Matrix& target,
                        double gradScale, linalg::Matrix& grad);

/// Summary of one training epoch.
struct TrainStats {
  double meanLoss = 0.0;     ///< mean per-sample loss over the epoch
  std::size_t batches = 0;   ///< optimizer steps taken
};

/// Caller-owned scratch for trainEpochMse — the gathered mini-batch and its
/// loss gradient — so repeated epochs do not allocate (the
/// Mlp::BatchWorkspace pattern).
struct TrainWorkspace {
  linalg::Matrix batchX;
  linalg::Matrix batchY;
  linalg::Matrix grad;
};

/// An epoch's visiting order: the identity permutation of `order.size()`
/// samples, shuffled with `rng`. These are an epoch's only random draws, and
/// they depend on nothing but the sample count, so callers can draw every
/// epoch's order up front and train later, on any thread.
void drawEpochOrder(std::mt19937_64& rng, std::span<std::size_t> order);

/// One epoch of mini-batch MSE training over row-paired sample matrices (row
/// i of `inputs` is one input, row i of `targets` its target), visiting the
/// rows in `order` (a permutation of the row indices, see drawEpochOrder).
/// Gradients are averaged over each batch before the optimizer step; stale
/// gradients the caller left in `net` are cleared once on entry, after which
/// each optimizer step zeroes the gradients it consumes. Draws no random
/// numbers. Returns mean per-sample loss.
TrainStats trainEpochMse(Mlp& net, AdamOptimizer& opt,
                         const linalg::Matrix& inputs,
                         const linalg::Matrix& targets, std::size_t batchSize,
                         std::span<const std::size_t> order,
                         TrainWorkspace& ws);

/// Mean MSE over a dataset without touching gradients.
double evaluateMse(const Mlp& net, const std::vector<linalg::Vector>& inputs,
                   const std::vector<linalg::Vector>& targets);

}  // namespace trdse::nn
