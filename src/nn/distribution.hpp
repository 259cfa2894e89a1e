// Categorical-distribution utilities shared by the model-free RL baselines
// (multi-discrete AutoCkt-style action heads for A2C / PPO / TRPO).
#pragma once

#include <random>

#include "linalg/matrix.hpp"

namespace trdse::nn {

/// Numerically-stable softmax.
linalg::Vector softmax(const linalg::Vector& logits);

/// Numerically-stable log-softmax.
linalg::Vector logSoftmax(const linalg::Vector& logits);

/// Sample an index from softmax(logits).
std::size_t sampleCategorical(const linalg::Vector& logits, std::mt19937_64& rng);

/// Entropy of softmax(logits).
double categoricalEntropy(const linalg::Vector& logits);

/// KL( softmax(p) || softmax(q) ).
double categoricalKl(const linalg::Vector& logitsP, const linalg::Vector& logitsQ);

/// d/dlogits of log softmax(logits)[action]  ==  onehot(action) - softmax.
linalg::Vector logProbGrad(const linalg::Vector& logits, std::size_t action);

// ---- Batched (row-major matrix) variants ----
//
// Each row of `logits` holds the head-major logits of one sample: a
// concatenation of `segment`-wide blocks, one block per categorical head.
// The transforms apply independently per block with the exact arithmetic of
// the per-vector functions above (max-shift, ascending-index summation), so
// the batched results are bitwise identical to calling the scalar versions
// block by block. Outputs are resized by the callee; capacity persists, so
// steady-state calls reuse storage.

/// Per-block softmax of every row of `logits` into `out`.
/// @param segment block width; must divide logits.cols() evenly.
void softmaxSegments(const linalg::Matrix& logits, std::size_t segment,
                     linalg::Matrix& out);

/// Per-block log-softmax of every row of `logits` into `out`.
/// @param segment block width; must divide logits.cols() evenly.
void logSoftmaxSegments(const linalg::Matrix& logits, std::size_t segment,
                        linalg::Matrix& out);

}  // namespace trdse::nn
