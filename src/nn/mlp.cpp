#include "nn/mlp.hpp"

#include <cassert>
#include <cmath>

namespace trdse::nn {

Mlp::Mlp(const MlpConfig& config, std::uint64_t seed) : config_(config) {
  assert(config.layerSizes.size() >= 2 && "need at least input and output dims");
  std::mt19937_64 rng(seed);
  const std::size_t n = config.layerSizes.size() - 1;
  layers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Activation act = (i + 1 == n) ? config.output : config.hidden;
    layers_.emplace_back(config.layerSizes[i], config.layerSizes[i + 1], act);
    layers_.back().initWeights(rng);
  }
}

std::size_t Mlp::inputDim() const {
  return layers_.empty() ? 0 : layers_.front().inDim();
}

std::size_t Mlp::outputDim() const {
  return layers_.empty() ? 0 : layers_.back().outDim();
}

linalg::Vector Mlp::forward(const linalg::Vector& x) {
  linalg::Vector h = x;
  for (auto& layer : layers_) h = layer.forward(h);
  return h;
}

linalg::Vector Mlp::predict(const linalg::Vector& x) const {
  linalg::Vector h = x;
  for (const auto& layer : layers_) h = layer.predict(h);
  return h;
}

linalg::Vector Mlp::backward(const linalg::Vector& gradOut) {
  linalg::Vector g = gradOut;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = it->backward(g);
  return g;
}

const linalg::Matrix& Mlp::forwardBatch(const linalg::Matrix& x) {
  assert(!layers_.empty());
  const linalg::Matrix* h = &x;
  for (auto& layer : layers_) h = &layer.forwardBatch(*h);
  return *h;
}

void Mlp::predictBatch(const linalg::Matrix& x, linalg::Matrix& out,
                       BatchWorkspace& ws) const {
  assert(!layers_.empty());
  const linalg::Matrix* h = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    linalg::Matrix& dst =
        (i + 1 == layers_.size()) ? out : (i % 2 == 0 ? ws.ping : ws.pong);
    layers_[i].predictBatch(*h, dst, ws.pack);
    h = &dst;
  }
}

linalg::Matrix Mlp::predictBatch(const linalg::Matrix& x) const {
  BatchWorkspace ws;
  linalg::Matrix out;
  predictBatch(x, out, ws);
  return out;
}

const linalg::Matrix& Mlp::backwardBatch(const linalg::Matrix& gradOut) {
  assert(!layers_.empty());
  const linalg::Matrix* g = &gradOut;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = &it->backwardBatch(*g);
  return *g;
}

void Mlp::zeroGrad() {
  for (auto& layer : layers_) layer.zeroGrad();
}

void Mlp::reinitialize(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (auto& layer : layers_) layer.initWeights(rng);
}

std::size_t Mlp::parameterCount() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.parameterCount();
  return n;
}

linalg::Vector Mlp::getParameters() const {
  linalg::Vector flat;
  flat.reserve(parameterCount());
  for (const auto& layer : layers_) {
    const auto& w = layer.weights();
    flat.insert(flat.end(), w.data(), w.data() + w.size());
    flat.insert(flat.end(), layer.bias().begin(), layer.bias().end());
  }
  return flat;
}

void Mlp::setParameters(const linalg::Vector& flat) {
  assert(flat.size() == parameterCount());
  std::size_t off = 0;
  for (auto& layer : layers_) {
    auto& w = layer.weights();
    std::copy(flat.begin() + static_cast<long>(off),
              flat.begin() + static_cast<long>(off + w.size()), w.data());
    off += w.size();
    std::copy(flat.begin() + static_cast<long>(off),
              flat.begin() + static_cast<long>(off + layer.bias().size()),
              layer.bias().begin());
    off += layer.bias().size();
  }
}

linalg::Vector Mlp::getGradients() const {
  linalg::Vector flat;
  flat.reserve(parameterCount());
  for (const auto& layer : layers_) {
    const auto& gw = layer.gradWeights();
    flat.insert(flat.end(), gw.data(), gw.data() + gw.size());
    flat.insert(flat.end(), layer.gradBias().begin(), layer.gradBias().end());
  }
  return flat;
}

void Mlp::addToParameters(const linalg::Vector& direction, double alpha) {
  assert(direction.size() == parameterCount());
  std::size_t off = 0;
  for (auto& layer : layers_) {
    auto& w = layer.weights();
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] += alpha * direction[off + i];
    off += w.size();
    auto& b = layer.bias();
    for (std::size_t i = 0; i < b.size(); ++i) b[i] += alpha * direction[off + i];
    off += b.size();
  }
}

double clipGradNorm(Mlp& net, double maxNorm) {
  // Sum of squares over each layer's own gradient storage, in the flat order
  // of getGradients() (layer by layer, weights then bias).
  double norm = 0.0;
  for (const auto& layer : net.layers()) {
    const linalg::Matrix& gw = layer.gradWeights();
    for (std::size_t i = 0; i < gw.size(); ++i) norm += gw.data()[i] * gw.data()[i];
    for (double v : layer.gradBias()) norm += v * v;
  }
  norm = std::sqrt(norm);
  if (norm > maxNorm && norm > 0.0) {
    const double scale = maxNorm / norm;
    for (auto& layer : net.layers()) {
      layer.gradWeights() *= scale;
      for (double& v : layer.gradBias()) v *= scale;
    }
  }
  return norm;
}

}  // namespace trdse::nn
