#include "nn/loss.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace trdse::nn {

double mseLoss(const linalg::Vector& pred, const linalg::Vector& target) {
  assert(pred.size() == target.size());
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    s += d * d;
  }
  return s / static_cast<double>(pred.size());
}

linalg::Vector mseGrad(const linalg::Vector& pred, const linalg::Vector& target) {
  assert(pred.size() == target.size());
  linalg::Vector g(pred.size());
  const double scale = 2.0 / static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i)
    g[i] = scale * (pred[i] - target[i]);
  return g;
}

double mseLossGradBatch(const linalg::Matrix& pred, const linalg::Matrix& target,
                        double gradScale, linalg::Matrix& grad) {
  assert(pred.rows() == target.rows() && pred.cols() == target.cols());
  grad.resize(pred.rows(), pred.cols());
  const std::size_t n = pred.cols();
  const double scale = 2.0 / static_cast<double>(n);
  double lossSum = 0.0;
  for (std::size_t r = 0; r < pred.rows(); ++r) {
    const double* pr = pred.row(r);
    const double* tr = target.row(r);
    double* gr = grad.row(r);
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = pr[j] - tr[j];
      s += d * d;
      // Two sequential multiplies, matching mseGrad followed by the batch
      // rescale in the per-sample trainer bit for bit.
      gr[j] = scale * d;
      gr[j] *= gradScale;
    }
    lossSum += s / static_cast<double>(n);
  }
  return lossSum;
}

void drawEpochOrder(std::mt19937_64& rng, std::span<std::size_t> order) {
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
}

TrainStats trainEpochMse(Mlp& net, AdamOptimizer& opt,
                         const linalg::Matrix& inputs,
                         const linalg::Matrix& targets, std::size_t batchSize,
                         std::span<const std::size_t> order,
                         TrainWorkspace& ws) {
  assert(inputs.rows() == targets.rows());
  assert(order.size() == inputs.rows());
  const std::size_t inDim = net.inputDim();
  const std::size_t outDim = net.outputDim();
  assert(inputs.cols() == inDim && targets.cols() == outDim);
  TrainStats stats;
  const std::size_t n = inputs.rows();
  if (n == 0) return stats;
  batchSize = std::max<std::size_t>(1, batchSize);

  // Gather each shuffled mini-batch into matrices and run true batched
  // forward/backward GEMM passes. Buffer capacity persists across calls.
  net.zeroGrad();
  double lossSum = 0.0;
  std::size_t seen = 0;
  for (std::size_t start = 0; start < n; start += batchSize) {
    const std::size_t end = std::min(n, start + batchSize);
    const std::size_t b = end - start;
    const double invB = 1.0 / static_cast<double>(b);
    ws.batchX.resize(b, inDim);
    ws.batchY.resize(b, outDim);
    for (std::size_t k = start; k < end; ++k) {
      const std::size_t src = order[k];
      std::copy(inputs.row(src), inputs.row(src) + inDim, ws.batchX.row(k - start));
      std::copy(targets.row(src), targets.row(src) + outDim,
                ws.batchY.row(k - start));
    }
    const linalg::Matrix& pred = net.forwardBatch(ws.batchX);
    lossSum += mseLossGradBatch(pred, ws.batchY, invB, ws.grad);
    net.backwardBatch(ws.grad);
    opt.step(net);
    seen += b;
    ++stats.batches;
  }
  stats.meanLoss = lossSum / static_cast<double>(seen);
  return stats;
}

double evaluateMse(const Mlp& net, const std::vector<linalg::Vector>& inputs,
                   const std::vector<linalg::Vector>& targets) {
  assert(inputs.size() == targets.size());
  if (inputs.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    s += mseLoss(net.predict(inputs[i]), targets[i]);
  return s / static_cast<double>(inputs.size());
}

}  // namespace trdse::nn
