#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "nn/distribution.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/scaler.hpp"

namespace trdse::nn {
namespace {

MlpConfig smallConfig(Activation hidden = Activation::kTanh) {
  MlpConfig c;
  c.layerSizes = {3, 8, 2};
  c.hidden = hidden;
  return c;
}

/// Row-stack a sample list into the matrix form trainEpochMse takes.
linalg::Matrix rowsOf(const std::vector<linalg::Vector>& samples) {
  linalg::Matrix m(samples.size(), samples.front().size());
  for (std::size_t r = 0; r < samples.size(); ++r)
    std::copy(samples[r].begin(), samples[r].end(), m.row(r));
  return m;
}

TEST(Mlp, ShapesAndDeterminism) {
  Mlp a(smallConfig(), 42);
  Mlp b(smallConfig(), 42);
  EXPECT_EQ(a.inputDim(), 3u);
  EXPECT_EQ(a.outputDim(), 2u);
  EXPECT_EQ(a.getParameters(), b.getParameters());
  Mlp c(smallConfig(), 43);
  EXPECT_NE(a.getParameters(), c.getParameters());
}

TEST(Mlp, FlatParameterRoundTrip) {
  Mlp net(smallConfig(), 1);
  linalg::Vector p = net.getParameters();
  EXPECT_EQ(p.size(), net.parameterCount());
  for (auto& v : p) v += 0.25;
  net.setParameters(p);
  EXPECT_EQ(net.getParameters(), p);
}

TEST(Mlp, AddToParameters) {
  Mlp net(smallConfig(), 1);
  const linalg::Vector p0 = net.getParameters();
  linalg::Vector dir(p0.size(), 1.0);
  net.addToParameters(dir, 0.5);
  const linalg::Vector p1 = net.getParameters();
  for (std::size_t i = 0; i < p0.size(); ++i) EXPECT_NEAR(p1[i], p0[i] + 0.5, 1e-12);
}

/// Finite-difference gradient check: the analytic backward pass must match
/// numerical differentiation of the MSE loss through the whole network.
class GradientCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(GradientCheckTest, BackpropMatchesFiniteDifference) {
  const Activation act =
      GetParam() % 2 == 0 ? Activation::kTanh : Activation::kRelu;
  Mlp net(smallConfig(act), static_cast<std::uint64_t>(GetParam()));
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 99);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  const linalg::Vector x = {d(rng), d(rng), d(rng)};
  const linalg::Vector y = {d(rng), d(rng)};

  net.zeroGrad();
  const linalg::Vector pred = net.forward(x);
  net.backward(mseGrad(pred, y));
  const linalg::Vector analytic = net.getGradients();

  const linalg::Vector p0 = net.getParameters();
  constexpr double kEps = 1e-6;
  for (std::size_t i = 0; i < p0.size(); i += 7) {  // spot-check every 7th
    linalg::Vector p = p0;
    p[i] += kEps;
    net.setParameters(p);
    const double lossP = mseLoss(net.predict(x), y);
    p[i] -= 2 * kEps;
    net.setParameters(p);
    const double lossM = mseLoss(net.predict(x), y);
    const double numeric = (lossP - lossM) / (2 * kEps);
    EXPECT_NEAR(analytic[i], numeric, 1e-5)
        << "param " << i << " activation " << toString(act);
    net.setParameters(p0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientCheckTest, ::testing::Range(0, 8));

TEST(Training, LearnsLinearMap) {
  // y = A x with A fixed; a linear-capacity problem any MLP must crush.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<linalg::Vector> xs;
  std::vector<linalg::Vector> ys;
  for (int i = 0; i < 200; ++i) {
    const linalg::Vector x = {d(rng), d(rng), d(rng)};
    xs.push_back(x);
    ys.push_back({0.5 * x[0] - x[1], x[2] + 0.25 * x[0]});
  }
  Mlp net(smallConfig(), 7);
  AdamOptimizer opt(1e-2);
  const linalg::Matrix x = rowsOf(xs);
  const linalg::Matrix y = rowsOf(ys);
  TrainWorkspace ws;
  std::vector<std::size_t> order(xs.size());
  double loss = 0.0;
  for (int e = 0; e < 200; ++e) {
    drawEpochOrder(rng, order);
    loss = trainEpochMse(net, opt, x, y, 16, order, ws).meanLoss;
  }
  EXPECT_LT(loss, 1e-3);
  EXPECT_LT(evaluateMse(net, xs, ys), 1e-3);
}

TEST(Training, LearnsNonlinearFunction) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<linalg::Vector> xs;
  std::vector<linalg::Vector> ys;
  for (int i = 0; i < 300; ++i) {
    const linalg::Vector x = {d(rng), d(rng), d(rng)};
    xs.push_back(x);
    ys.push_back({std::sin(2.0 * x[0]) * x[1], x[2] * x[2]});
  }
  MlpConfig cfg;
  cfg.layerSizes = {3, 24, 24, 2};
  Mlp net(cfg, 11);
  AdamOptimizer opt(3e-3);
  const linalg::Matrix x = rowsOf(xs);
  const linalg::Matrix y = rowsOf(ys);
  TrainWorkspace ws;
  std::vector<std::size_t> order(xs.size());
  double loss = 1.0;
  for (int e = 0; e < 400; ++e) {
    drawEpochOrder(rng, order);
    loss = trainEpochMse(net, opt, x, y, 32, order, ws).meanLoss;
  }
  EXPECT_LT(loss, 5e-3);
}

TEST(Mlp, ClipGradNorm) {
  Mlp net(smallConfig(), 3);
  net.zeroGrad();
  const linalg::Vector pred = net.forward({1.0, -1.0, 0.5});
  net.backward({10.0, -10.0});
  const double norm = clipGradNorm(net, 0.1);
  EXPECT_GT(norm, 0.1);
  double clipped = 0.0;
  for (double g : net.getGradients()) clipped += g * g;
  EXPECT_NEAR(std::sqrt(clipped), 0.1, 1e-9);
}

TEST(Distribution, SoftmaxNormalizes) {
  const linalg::Vector p = softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Distribution, SoftmaxStableForLargeLogits) {
  const linalg::Vector p = softmax({1000.0, 1001.0, 999.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Distribution, LogSoftmaxMatchesSoftmax) {
  const linalg::Vector logits = {0.3, -1.2, 2.0};
  const linalg::Vector p = softmax(logits);
  const linalg::Vector lp = logSoftmax(logits);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(std::exp(lp[i]), p[i], 1e-12);
}

TEST(Distribution, EntropyBounds) {
  EXPECT_NEAR(categoricalEntropy({1.0, 1.0, 1.0}), std::log(3.0), 1e-12);
  EXPECT_LT(categoricalEntropy({100.0, 0.0, 0.0}), 1e-6);
}

TEST(Distribution, KlProperties) {
  const linalg::Vector a = {0.5, 1.5, -0.3};
  EXPECT_NEAR(categoricalKl(a, a), 0.0, 1e-12);
  EXPECT_GT(categoricalKl(a, {2.0, -1.0, 0.0}), 0.0);
}

TEST(Distribution, SamplingFollowsProbabilities) {
  std::mt19937_64 rng(17);
  const linalg::Vector logits = {0.0, 2.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) ++counts[sampleCategorical(logits, rng)];
  const linalg::Vector p = softmax(logits);
  EXPECT_NEAR(counts[1] / 3000.0, p[1], 0.05);
}

TEST(Distribution, LogProbGradSumsToZero) {
  const linalg::Vector g = logProbGrad({0.5, -0.5, 1.0}, 2);
  EXPECT_NEAR(g[0] + g[1] + g[2], 0.0, 1e-12);
  EXPECT_GT(g[2], 0.0);
}

TEST(Scaler, MinMaxRoundTrip) {
  MinMaxScaler s({0.0, 10.0}, {1.0, 20.0});
  const linalg::Vector z = s.transform({0.5, 15.0});
  EXPECT_NEAR(z[0], 0.0, 1e-12);
  EXPECT_NEAR(z[1], 0.0, 1e-12);
  const linalg::Vector x = s.inverse(z);
  EXPECT_NEAR(x[0], 0.5, 1e-12);
  EXPECT_NEAR(x[1], 15.0, 1e-12);
}

TEST(Scaler, StandardizerRoundTrip) {
  Standardizer s;
  s.fit({{1.0, 100.0}, {3.0, 300.0}, {2.0, 200.0}});
  const linalg::Vector z = s.transform({2.0, 200.0});
  EXPECT_NEAR(z[0], 0.0, 1e-12);
  EXPECT_NEAR(z[1], 0.0, 1e-12);
  const linalg::Vector x = s.inverse({1.0, -1.0});
  EXPECT_GT(x[0], 2.0);
  EXPECT_LT(x[1], 200.0);
}

TEST(Scaler, DegenerateDimension) {
  Standardizer s;
  s.fit({{5.0, 1.0}, {5.0, 2.0}});
  const linalg::Vector z = s.transform({5.0, 1.5});
  EXPECT_NEAR(z[0], 0.0, 1e-12);  // centred, unscaled
  EXPECT_FALSE(std::isnan(z[1]));
}

}  // namespace
}  // namespace trdse::nn
