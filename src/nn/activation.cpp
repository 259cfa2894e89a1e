#include "nn/activation.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace trdse::nn {

namespace {

// Branch-free tanh over a span, built so the whole loop auto-vectorizes:
// tanh(x) = sign(x) · (1 − 2/(e^{2|x|}+1)), with e^t computed by additive
// range reduction (t = k·ln2 + r, two-part ln2) and a degree-13 Taylor
// polynomial for e^r on r ∈ [−ln2/2, ln2/2]; 2^k is assembled directly into
// the exponent bits. Max deviation from std::tanh is ~2e-16 absolute
// (measured over [−6, 6]); ±0, saturation, ±inf and NaN behave like
// std::tanh. Both the per-sample and the batched inference paths call this,
// so they stay bitwise identical to each other.
//
// The scalar libm tanh costs ~12 ns/call and cannot vectorize; at 800
// planning candidates × two hidden layers per TRM step it dominated the
// batched profile, which is why it is hand-rolled here.
void tanhSpan(double* TRDSE_RESTRICT x, std::size_t n) {
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52: round-to-int bias
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    const double a = std::abs(v);
    double t = 2.0 * a;
    // Past t = 40, e^t + 1 == e^t in double precision and tanh == 1.
    if (t > 40.0) t = 40.0;
    double kd = t * kLog2e + kShift;
    // t ∈ [0, 40] keeps k in the low mantissa word of the shifted double.
    const std::int64_t ki = std::bit_cast<std::int64_t>(kd) & 0xFFFFFFFF;
    kd -= kShift;
    const double r = (t - kd * kLn2Hi) - kd * kLn2Lo;
    double p = 1.0 / 6227020800.0;
    p = p * r + 1.0 / 479001600.0;
    p = p * r + 1.0 / 39916800.0;
    p = p * r + 1.0 / 3628800.0;
    p = p * r + 1.0 / 362880.0;
    p = p * r + 1.0 / 40320.0;
    p = p * r + 1.0 / 5040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    const double e2a = p * std::bit_cast<double>((ki + 1023) << 52);
    const double m = 1.0 - 2.0 / (e2a + 1.0);
    x[i] = std::copysign(m, v);  // m >= 0; preserves the sign of -0.0 too
  }
}

}  // namespace

std::string_view toString(Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kRelu:
      return "relu";
    case Activation::kTanh:
      return "tanh";
  }
  return "?";
}

void applyActivation(Activation a, double* x, std::size_t n) {
  switch (a) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : 0.0;
      return;
    case Activation::kTanh:
      tanhSpan(x, n);
      return;
  }
}

void applyActivation(Activation a, linalg::Vector& x) {
  applyActivation(a, x.data(), x.size());
}

void applyActivation(Activation a, linalg::Matrix& x) {
  applyActivation(a, x.data(), x.size());
}

void applyActivationGrad(Activation a, const double* pre, const double* post,
                         const double* gradIn, double* gradOut, std::size_t n) {
  switch (a) {
    case Activation::kIdentity:
      if (gradOut != gradIn) std::copy(gradIn, gradIn + n, gradOut);
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i)
        gradOut[i] = pre[i] <= 0.0 ? 0.0 : gradIn[i];
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i)
        gradOut[i] = gradIn[i] * (1.0 - post[i] * post[i]);
      return;
  }
}

void applyActivationGrad(Activation a, const linalg::Vector& pre,
                         const linalg::Vector& post, linalg::Vector& grad) {
  assert(pre.size() == grad.size() && post.size() == grad.size());
  applyActivationGrad(a, pre.data(), post.data(), grad.data(), grad.data(),
                      grad.size());
}

void applyActivationGrad(Activation a, const linalg::Matrix& pre,
                         const linalg::Matrix& post, const linalg::Matrix& gradIn,
                         linalg::Matrix& gradOut) {
  assert(pre.size() == gradIn.size() && post.size() == gradIn.size());
  assert(&gradOut != &gradIn);
  gradOut.resize(gradIn.rows(), gradIn.cols());
  applyActivationGrad(a, pre.data(), post.data(), gradIn.data(), gradOut.data(),
                      gradIn.size());
}

}  // namespace trdse::nn
