#include "nn/dense_layer.hpp"

#include <cassert>
#include <cmath>

namespace trdse::nn {

DenseLayer::DenseLayer(std::size_t inDim, std::size_t outDim, Activation act)
    : weights_(outDim, inDim),
      bias_(outDim, 0.0),
      gradW_(outDim, inDim),
      gradB_(outDim, 0.0),
      act_(act) {}

void DenseLayer::initWeights(std::mt19937_64& rng) {
  const double fanIn = static_cast<double>(inDim());
  const double fanOut = static_cast<double>(outDim());
  double limit;
  if (act_ == Activation::kRelu) {
    limit = std::sqrt(6.0 / fanIn);  // He uniform
  } else {
    limit = std::sqrt(6.0 / (fanIn + fanOut));  // Glorot uniform
  }
  std::uniform_real_distribution<double> dist(-limit, limit);
  for (std::size_t r = 0; r < weights_.rows(); ++r)
    for (std::size_t c = 0; c < weights_.cols(); ++c) weights_(r, c) = dist(rng);
  std::fill(bias_.begin(), bias_.end(), 0.0);
}

linalg::Vector DenseLayer::forward(const linalg::Vector& x) {
  assert(x.size() == inDim());
  lastInput_ = x;
  lastPre_ = matVec(weights_, x);
  for (std::size_t i = 0; i < bias_.size(); ++i) lastPre_[i] += bias_[i];
  lastOut_ = lastPre_;
  applyActivation(act_, lastOut_);
  return lastOut_;
}

linalg::Vector DenseLayer::predict(const linalg::Vector& x) const {
  assert(x.size() == inDim());
  linalg::Vector y = matVec(weights_, x);
  for (std::size_t i = 0; i < bias_.size(); ++i) y[i] += bias_[i];
  applyActivation(act_, y);
  return y;
}

linalg::Vector DenseLayer::backward(const linalg::Vector& gradOut) {
  assert(gradOut.size() == outDim());
  linalg::Vector g = gradOut;
  applyActivationGrad(act_, lastPre_, lastOut_, g);
  // Accumulate parameter gradients: dW += g * x^T, db += g.
  for (std::size_t r = 0; r < weights_.rows(); ++r) {
    const double gr = g[r];
    if (gr == 0.0) continue;
    double* gw = gradW_.row(r);
    for (std::size_t c = 0; c < weights_.cols(); ++c) gw[c] += gr * lastInput_[c];
    gradB_[r] += gr;
  }
  // dL/dx = W^T g.
  return matTVec(weights_, g);
}

const linalg::Matrix& DenseLayer::forwardBatch(const linalg::Matrix& x) {
  assert(x.cols() == inDim());
  lastInputB_ = x;
  matMulTransBBiasInto(x, weights_, bias_, lastPreB_, packB_);
  lastOutB_ = lastPreB_;
  applyActivation(act_, lastOutB_);
  return lastOutB_;
}

void DenseLayer::predictBatch(const linalg::Matrix& x, linalg::Matrix& out,
                              linalg::Matrix& packBuf) const {
  assert(x.cols() == inDim());
  matMulTransBBiasInto(x, weights_, bias_, out, packBuf);
  applyActivation(act_, out);
}

const linalg::Matrix& DenseLayer::backwardBatch(const linalg::Matrix& gradOut) {
  assert(gradOut.cols() == outDim());
  assert(gradOut.rows() == lastInputB_.rows() && "forwardBatch must precede");
  // The activation gradient lands straight in the workspace: one pass over
  // gradOut instead of a copy followed by an in-place scale.
  applyActivationGrad(act_, lastPreB_, lastOutB_, gradOut, gradOutB_);
  // dW += G^T X and db += column sums of G, both accumulated sample-ascending
  // so gradients match the per-sample backward() exactly.
  gemmAtBAccum(gradOutB_, lastInputB_, gradW_);
  addColSums(gradOutB_, gradB_);
  // dL/dX = G * W.
  matMulInto(gradOutB_, weights_, gradInB_);
  return gradInB_;
}

void DenseLayer::zeroGrad() {
  gradW_.fill(0.0);
  std::fill(gradB_.begin(), gradB_.end(), 0.0);
}

}  // namespace trdse::nn
