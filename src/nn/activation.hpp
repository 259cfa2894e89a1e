// Element-wise activation functions and their derivatives.
#pragma once

#include <cstdint>
#include <string_view>

#include "linalg/matrix.hpp"

namespace trdse::nn {

/// Supported element-wise activations.
enum class Activation : std::uint8_t { kIdentity = 0, kRelu = 1, kTanh = 2 };

/// Human-readable activation name.
std::string_view toString(Activation a);

/// x[i] = act(x[i]) over a raw span — the batched kernels hand whole
/// activation matrices (contiguous row-major storage) to this.
void applyActivation(Activation a, double* x, std::size_t n);

/// y[i] = act(x[i])
void applyActivation(Activation a, linalg::Vector& x);

/// Whole-matrix activation (batch × dim, applied element-wise).
void applyActivation(Activation a, linalg::Matrix& x);

/// gradOut[i] = gradIn[i] * act'(pre[i]) over raw spans; `post` is the
/// activation output (tanh derivative is cheapest from `post`). `gradOut`
/// may alias `gradIn` (the in-place per-sample update).
void applyActivationGrad(Activation a, const double* pre, const double* post,
                         const double* gradIn, double* gradOut, std::size_t n);

/// grad[i] *= act'(pre[i]) in place, where `pre` is the pre-activation input
/// and `post` the activation output.
void applyActivationGrad(Activation a, const linalg::Vector& pre,
                         const linalg::Vector& post, linalg::Vector& grad);

/// Whole-matrix activation gradient (batch × dim, element-wise), written
/// straight from `gradIn` into `gradOut` (resized; reuses capacity).
void applyActivationGrad(Activation a, const linalg::Matrix& pre,
                         const linalg::Matrix& post, const linalg::Matrix& gradIn,
                         linalg::Matrix& gradOut);

}  // namespace trdse::nn
