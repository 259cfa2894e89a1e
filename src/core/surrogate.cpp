#include "core/surrogate.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace trdse::core {

SurrogateConfig autoConfigure(std::size_t paramDim, std::size_t measDim) {
  SurrogateConfig c;
  c.hiddenWidth = std::clamp<std::size_t>(6 * paramDim + 4 * measDim, 32, 128);
  return c;
}

SpiceSurrogate::SpiceSurrogate(std::size_t inputDim, std::size_t outputDim,
                               SurrogateConfig config, std::uint64_t seed)
    : config_(config),
      net_([&] {
        nn::MlpConfig mc;
        mc.layerSizes.push_back(inputDim);
        for (std::size_t i = 0; i < config.hiddenLayers; ++i)
          mc.layerSizes.push_back(config.hiddenWidth);
        mc.layerSizes.push_back(outputDim);
        mc.hidden = nn::Activation::kTanh;
        mc.output = nn::Activation::kIdentity;
        return nn::Mlp(mc, seed);
      }()),
      opt_(config.learningRate) {}

void SpiceSurrogate::addSample(const linalg::Vector& unitX,
                               const linalg::Vector& measurements) {
  assert(unitX.size() == net_.inputDim());
  assert(measurements.size() == net_.outputDim());
  inputs_.push_back(unitX);
  targetsRaw_.push_back(measurements);
}

void SpiceSurrogate::setData(std::vector<linalg::Vector> unitXs,
                             std::vector<linalg::Vector> measurements) {
  assert(unitXs.size() == measurements.size());
  inputs_ = std::move(unitXs);
  targetsRaw_ = std::move(measurements);
}

void SpiceSurrogate::drawShuffles(std::mt19937_64& rng) {
  const std::size_t n = inputs_.size();
  orders_.resize(config_.epochsPerUpdate * n);
  for (std::size_t e = 0; e < config_.epochsPerUpdate; ++e)
    nn::drawEpochOrder(rng, std::span(orders_).subspan(e * n, n));
}

double SpiceSurrogate::fit() {
  const std::size_t n = inputs_.size();
  if (n == 0) return 0.0;
  if (orders_.size() != config_.epochsPerUpdate * n)
    throw std::logic_error(
        "SpiceSurrogate::fit: no shuffles drawn for the current samples");
  // Standardize both sides: the local region can be a tiny slab of the unit
  // cube, and centring/scaling it keeps the tanh layers in their active range.
  inScaler_.fit(inputs_);
  outScaler_.fit(targetsRaw_);
  inScaler_.transform(inputs_, trainX_);
  outScaler_.transform(targetsRaw_, trainY_);

  double lastLoss = 0.0;
  for (std::size_t e = 0; e < config_.epochsPerUpdate; ++e) {
    const nn::TrainStats s = nn::trainEpochMse(
        net_, opt_, trainX_, trainY_, config_.batchSize,
        std::span<const std::size_t>(orders_).subspan(e * n, n), trainWs_);
    lastLoss = s.meanLoss;
  }
  orders_.clear();  // consumed: the next fit needs fresh draws
  return lastLoss;
}

linalg::Vector SpiceSurrogate::predict(const linalg::Vector& unitX) const {
  const linalg::Vector x =
      inScaler_.fitted() ? inScaler_.transform(unitX) : unitX;
  const linalg::Vector z = net_.predict(x);
  if (!outScaler_.fitted()) return z;
  return outScaler_.inverse(z);
}

void SpiceSurrogate::predictBatch(const linalg::Matrix& unitX,
                                  linalg::Matrix& out,
                                  PredictWorkspace& ws) const {
  assert(unitX.cols() == net_.inputDim());
  const linalg::Matrix* x = &unitX;
  if (inScaler_.fitted()) {
    inScaler_.transform(unitX, ws.scaled);
    x = &ws.scaled;
  }
  if (!outScaler_.fitted()) {
    net_.predictBatch(*x, out, ws.net);
    return;
  }
  net_.predictBatch(*x, ws.z, ws.net);
  outScaler_.inverse(ws.z, out);
}

void SpiceSurrogate::reinitialize(std::uint64_t seed) {
  net_.reinitialize(seed);
  opt_.reset();
}

bool SpiceSurrogate::adoptWeights(const nn::Mlp& other) {
  if (other.parameterCount() != net_.parameterCount()) return false;
  if (other.inputDim() != net_.inputDim() || other.outputDim() != net_.outputDim())
    return false;
  net_.setParameters(other.getParameters());
  opt_.reset();
  return true;
}

}  // namespace trdse::core
