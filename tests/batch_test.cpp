// Equivalence and correctness tests for the batched inference/training path:
// the blocked GEMM kernels, the batched layer/network APIs, batched surrogate
// scoring, batched trust-region planning, and the thread-parallel PVT
// evaluation pipeline. The batched code is designed to be *bitwise* identical
// to the per-sample path: the training path (forward/backward, gradients,
// optimizer steps) is checked with exact equality; the remaining tolerances
// (1e-12) are an upper bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "core/local_explorer.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "core/surrogate.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/scaler.hpp"

namespace trdse {
namespace {

using linalg::Matrix;
using linalg::Vector;

Matrix randomMatrix(std::size_t r, std::size_t c, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = d(rng);
  return m;
}

/// Row-stack a sample list into the matrix form trainEpochMse takes.
Matrix rowsOf(const std::vector<Vector>& samples) {
  Matrix m(samples.size(), samples.front().size());
  for (std::size_t r = 0; r < samples.size(); ++r)
    std::copy(samples[r].begin(), samples[r].end(), m.row(r));
  return m;
}

/// Naive reference GEMM (no blocking) for validating the tiled kernel.
Matrix refMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  return c;
}

// ---------- linalg kernels ----------

TEST(Gemm, BlockedMatMulMatchesReference) {
  std::mt19937_64 rng(1);
  // Shapes straddle the 32-row and 256-depth tile boundaries.
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {33, 40, 7}, {70, 300, 50}, {64, 256, 32}};
  for (const auto& s : shapes) {
    const Matrix a = randomMatrix(s[0], s[1], rng);
    const Matrix b = randomMatrix(s[1], s[2], rng);
    const Matrix c = linalg::matMul(a, b);
    const Matrix ref = refMatMul(a, b);
    ASSERT_EQ(c.rows(), ref.rows());
    ASSERT_EQ(c.cols(), ref.cols());
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-12) << "shape " << s[0];
  }
}

TEST(Gemm, MatMulTransBMatchesExplicitTranspose) {
  std::mt19937_64 rng(2);
  const Matrix a = randomMatrix(41, 19, rng);
  const Matrix b = randomMatrix(23, 19, rng);  // b^T is 19 x 23
  const Matrix c = linalg::matMulTransB(a, b);
  const Matrix ref = refMatMul(a, linalg::transpose(b));
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-12);
}

TEST(Gemm, MatMulIntoReusesBuffersAcrossShapes) {
  std::mt19937_64 rng(3);
  Matrix c;
  for (std::size_t n : {4u, 9u, 2u}) {  // shrink + regrow
    const Matrix a = randomMatrix(n, n + 1, rng);
    const Matrix b = randomMatrix(n + 1, n + 2, rng);
    linalg::matMulInto(a, b, c);
    const Matrix ref = refMatMul(a, b);
    ASSERT_EQ(c.rows(), n);
    ASSERT_EQ(c.cols(), n + 2);
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-12);
  }
}

/// The weight-gradient kernel against per-sample rank-1 updates (skipping
/// zero coefficients, as DenseLayer::backward does). Shapes hit the 2-row
/// and 8/4/1-column tiles and their remainders; a row whose coefficients are
/// all zero carries infinities that only the skip keeps out of C (a NaN is
/// never near). The tolerance is because this test-local loop may contract
/// multiply-adds differently from the kernel under some build flags; the
/// bitwise contract with DenseLayer::backward is checked by the MlpBatch
/// tests below, which compare two library paths.
TEST(Gemm, GemmAtBAccumMatchesRankOneUpdates) {
  std::mt19937_64 rng(4);
  const std::size_t shapes[][3] = {{17, 6, 9}, {13, 48, 9}, {16, 5, 13}, {1, 1, 1}};
  for (const auto& s : shapes) {
    Matrix g = randomMatrix(s[0], s[1], rng);  // batch x out
    Matrix x = randomMatrix(s[0], s[2], rng);  // batch x in
    for (std::size_t i = 0; i < g.size(); i += 5) g.data()[i] = 0.0;
    const std::size_t dead = s[0] / 2;
    for (std::size_t c = 0; c < s[1]; ++c) g(dead, c) = 0.0;
    x(dead, 0) = std::numeric_limits<double>::infinity();
    x(dead, s[2] - 1) = -std::numeric_limits<double>::infinity();
    Matrix acc = randomMatrix(s[1], s[2], rng);  // nonzero start: += semantics
    Matrix ref = acc;
    linalg::gemmAtBAccum(g, x, acc);
    for (std::size_t b = 0; b < g.rows(); ++b)
      for (std::size_t r = 0; r < s[1]; ++r) {
        if (g(b, r) == 0.0) continue;
        for (std::size_t c = 0; c < s[2]; ++c) ref(r, c) += g(b, r) * x(b, c);
      }
    for (std::size_t i = 0; i < acc.size(); ++i)
      EXPECT_NEAR(acc.data()[i], ref.data()[i], 1e-12)
          << "shape " << s[0] << "x" << s[1] << "x" << s[2] << " at " << i;
  }
}

TEST(Gemm, RowwiseHelpers) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  linalg::addRowwise(m, Vector{10.0, 20.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 26.0);
  Vector sums(2, 1.0);
  linalg::addColSums(m, sums);
  EXPECT_DOUBLE_EQ(sums[0], 1.0 + 11.0 + 13.0 + 15.0);
  EXPECT_DOUBLE_EQ(sums[1], 1.0 + 22.0 + 24.0 + 26.0);
}

TEST(Matrix, AlignedStorage) {
  Matrix m(7, 5, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u);
}

// ---------- batched network equivalence ----------

/// predictBatch must match per-sample predict to <= 1e-12 on every layer
/// shape / activation combination the repo uses.
TEST(MlpBatch, PredictBatchMatchesPredict) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> d(-1.5, 1.5);
  const std::vector<std::vector<std::size_t>> shapes = {
      {3, 8, 2}, {9, 48, 48, 4}, {12, 64, 64, 64, 6}, {2, 5, 1}};
  const nn::Activation hiddens[] = {nn::Activation::kTanh,
                                    nn::Activation::kRelu,
                                    nn::Activation::kIdentity};
  for (const auto& sizes : shapes) {
    for (const auto hidden : hiddens) {
      nn::MlpConfig cfg;
      cfg.layerSizes = sizes;
      cfg.hidden = hidden;
      nn::Mlp net(cfg, 7);
      const std::size_t batch = 33;
      Matrix x(batch, sizes.front());
      for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = d(rng);
      const Matrix out = net.predictBatch(x);
      ASSERT_EQ(out.rows(), batch);
      ASSERT_EQ(out.cols(), sizes.back());
      for (std::size_t r = 0; r < batch; ++r) {
        const Vector xi(x.row(r), x.row(r) + sizes.front());
        const Vector yi = net.predict(xi);
        for (std::size_t c = 0; c < yi.size(); ++c)
          EXPECT_NEAR(out(r, c), yi[c], 1e-12)
              << "shape[0]=" << sizes.front() << " act " << toString(hidden);
      }
    }
  }
}

/// One batched forward/backward against the per-sample path on the same
/// rows: outputs, dL/dX and accumulated gradients must agree bit for bit.
void expectBatchMatchesPerSample(const nn::MlpConfig& cfg, const Matrix& x,
                                 const Matrix& g) {
  const std::size_t batch = x.rows();
  const std::size_t in = cfg.layerSizes.front();
  const std::size_t out = cfg.layerSizes.back();
  nn::Mlp a(cfg, 21);
  nn::Mlp b(cfg, 21);

  a.zeroGrad();
  const Matrix& outB = a.forwardBatch(x);
  const Matrix& dxB = a.backwardBatch(g);

  b.zeroGrad();
  Matrix outS(batch, out);
  Matrix dxS(batch, in);
  for (std::size_t r = 0; r < batch; ++r) {
    const Vector xi(x.row(r), x.row(r) + in);
    const Vector gi(g.row(r), g.row(r) + out);
    const Vector oi = b.forward(xi);
    const Vector di = b.backward(gi);
    std::copy(oi.begin(), oi.end(), outS.row(r));
    std::copy(di.begin(), di.end(), dxS.row(r));
  }

  ASSERT_EQ(outB.size(), outS.size());
  for (std::size_t i = 0; i < outB.size(); ++i)
    EXPECT_EQ(outB.data()[i], outS.data()[i]) << "output " << i;
  ASSERT_EQ(dxB.size(), dxS.size());
  for (std::size_t i = 0; i < dxB.size(); ++i)
    EXPECT_EQ(dxB.data()[i], dxS.data()[i]) << "dX " << i;
  const Vector ga = a.getGradients();
  const Vector gb = b.getGradients();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i)
    EXPECT_EQ(ga[i], gb[i]) << "gradient " << i;
}

TEST(MlpBatch, ForwardBackwardBatchMatchesPerSampleGradients) {
  std::mt19937_64 rng(13);
  nn::MlpConfig cfg;
  cfg.layerSizes = {4, 16, 3};
  expectBatchMatchesPerSample(cfg, randomMatrix(10, 4, rng),
                              randomMatrix(10, 3, rng));
}

/// The surrogate's shape: input width 9 (one 8-wide weight-gradient tile plus
/// a remainder column), an odd row count, and zeros in the upstream gradient
/// (the zero-coefficient skip), for each hidden activation — relu's zero
/// derivative reaches the skip from inside the network too.
TEST(MlpBatch, BackwardBatchMatchesPerSampleOnSurrogateShape) {
  const nn::Activation hiddens[] = {nn::Activation::kTanh,
                                    nn::Activation::kRelu,
                                    nn::Activation::kIdentity};
  for (const auto hidden : hiddens) {
    std::mt19937_64 rng(17);
    nn::MlpConfig cfg;
    cfg.layerSizes = {9, 48, 48, 4};
    cfg.hidden = hidden;
    const Matrix x = randomMatrix(13, 9, rng);
    Matrix g = randomMatrix(13, 4, rng);
    for (std::size_t r = 0; r < g.rows(); r += 3) g(r, r % 4) = 0.0;
    for (std::size_t c = 0; c < g.cols(); ++c) g(5, c) = 0.0;  // a whole row
    SCOPED_TRACE(toString(hidden));
    expectBatchMatchesPerSample(cfg, x, g);
  }
}

/// The per-sample trainer the batched trainEpochMse replaced, kept here as
/// the reference implementation.
nn::TrainStats refTrainEpochMse(nn::Mlp& net, nn::Optimizer& opt,
                                const std::vector<Vector>& inputs,
                                const std::vector<Vector>& targets,
                                std::size_t batchSize, std::mt19937_64& rng) {
  nn::TrainStats stats;
  if (inputs.empty()) return stats;
  batchSize = std::max<std::size_t>(1, batchSize);
  std::vector<std::size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  double lossSum = 0.0;
  std::size_t seen = 0;
  for (std::size_t start = 0; start < order.size(); start += batchSize) {
    const std::size_t end = std::min(order.size(), start + batchSize);
    const double invB = 1.0 / static_cast<double>(end - start);
    net.zeroGrad();
    for (std::size_t k = start; k < end; ++k) {
      const Vector pred = net.forward(inputs[order[k]]);
      lossSum += nn::mseLoss(pred, targets[order[k]]);
      Vector grad = nn::mseGrad(pred, targets[order[k]]);
      for (double& v : grad) v *= invB;
      net.backward(grad);
      ++seen;
    }
    opt.step(net);
    ++stats.batches;
  }
  stats.meanLoss = lossSum / static_cast<double>(seen);
  return stats;
}

TEST(MlpBatch, BatchedTrainingMatchesPerSampleTraining) {
  std::mt19937_64 dataRng(31);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<Vector> xs;
  std::vector<Vector> ys;
  for (int i = 0; i < 70; ++i) {  // 70 % 16 != 0: exercises the ragged batch
    const Vector x = {d(dataRng), d(dataRng), d(dataRng)};
    xs.push_back(x);
    ys.push_back({x[0] * x[1], std::tanh(x[2])});
  }
  nn::MlpConfig cfg;
  cfg.layerSizes = {3, 12, 2};
  nn::Mlp netA(cfg, 5);
  nn::Mlp netB(cfg, 5);
  nn::AdamOptimizer optA(3e-3);
  nn::AdamOptimizer optB(3e-3);
  std::mt19937_64 rngA(77);
  std::mt19937_64 rngB(77);
  const Matrix xm = rowsOf(xs);
  const Matrix ym = rowsOf(ys);
  nn::TrainWorkspace ws;
  for (int e = 0; e < 5; ++e) {
    const auto sa = nn::trainEpochMse(netA, optA, xm, ym, 16, rngA, ws);
    const auto sb = refTrainEpochMse(netB, optB, xs, ys, 16, rngB);
    ASSERT_EQ(sa.batches, sb.batches);
    // Not bitwise: the batched trainer adds each batch's summed row losses
    // to the epoch total, the per-sample trainer adds every row directly.
    EXPECT_NEAR(sa.meanLoss, sb.meanLoss, 1e-12);
  }
  const Vector pa = netA.getParameters();
  const Vector pb = netB.getParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]) << i;
  EXPECT_EQ(optA.firstMoments(), optB.firstMoments());
  EXPECT_EQ(optA.secondMoments(), optB.secondMoments());
}

/// The flat-vector Adam step the in-place AdamOptimizer replaced, kept as
/// the reference: copy the gradients out, build an update vector, add it
/// back through addToParameters, zero the gradients.
struct FlatAdam {
  double lr = 3e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  long t = 0;
  Vector m;
  Vector v;

  void step(nn::Mlp& net) {
    const Vector g = net.getGradients();
    if (m.size() != g.size()) {
      m.assign(g.size(), 0.0);
      v.assign(g.size(), 0.0);
      t = 0;
    }
    ++t;
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    Vector update(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
      const double mHat = m[i] / bc1;
      const double vHat = v[i] / bc2;
      update[i] = mHat / (std::sqrt(vHat) + eps);
    }
    net.addToParameters(update, -lr);
    net.zeroGrad();
  }
};

/// Accumulate one batch of MSE-shaped gradients into `net`.
void accumulateGradients(nn::Mlp& net, const Matrix& x, const Matrix& g) {
  net.forwardBatch(x);
  net.backwardBatch(g);
}

/// Steps both optimizers on identical networks and gradients and checks the
/// parameters, moments and cleared gradients bit for bit after every step.
void expectAdamMatchesFlat(nn::AdamOptimizer& opt, FlatAdam& ref, nn::Mlp& a,
                           nn::Mlp& b, std::mt19937_64& rng, int steps) {
  for (int s = 0; s < steps; ++s) {
    const Matrix x = randomMatrix(7, a.inputDim(), rng);
    const Matrix g = randomMatrix(7, a.outputDim(), rng);
    accumulateGradients(a, x, g);
    accumulateGradients(b, x, g);
    opt.step(a);
    ref.step(b);
    ASSERT_EQ(opt.stepCount(), ref.t);
    EXPECT_EQ(a.getParameters(), b.getParameters()) << "step " << s;
    EXPECT_EQ(opt.firstMoments(), ref.m) << "step " << s;
    EXPECT_EQ(opt.secondMoments(), ref.v) << "step " << s;
    for (double gi : a.getGradients()) ASSERT_EQ(gi, 0.0);
  }
}

TEST(AdamInPlace, MatchesFlatVectorAdamFromFreshState) {
  nn::MlpConfig cfg;
  cfg.layerSizes = {9, 48, 48, 4};
  nn::Mlp a(cfg, 3);
  nn::Mlp b(cfg, 3);
  nn::AdamOptimizer opt(3e-3);
  FlatAdam ref;
  std::mt19937_64 rng(41);
  expectAdamMatchesFlat(opt, ref, a, b, rng, 6);
}

TEST(AdamInPlace, MatchesFlatVectorAdamFromRestoredMoments) {
  nn::MlpConfig cfg;
  cfg.layerSizes = {5, 12, 3};
  nn::Mlp warm(cfg, 8);
  nn::AdamOptimizer warmOpt(3e-3);
  std::mt19937_64 rng(43);
  for (int s = 0; s < 4; ++s) {
    const Matrix x = randomMatrix(6, 5, rng);
    const Matrix g = randomMatrix(6, 3, rng);
    accumulateGradients(warm, x, g);
    warmOpt.step(warm);
  }
  // Resume both optimizers from the checkpointed (t, m, v) on copies of the
  // trained network — the path restoreState takes after a checkpoint load.
  nn::Mlp a = warm;
  nn::Mlp b = warm;
  nn::AdamOptimizer opt(3e-3);
  opt.restoreState(warmOpt.stepCount(), warmOpt.firstMoments(),
                   warmOpt.secondMoments());
  FlatAdam ref;
  ref.t = warmOpt.stepCount();
  ref.m = warmOpt.firstMoments();
  ref.v = warmOpt.secondMoments();
  expectAdamMatchesFlat(opt, ref, a, b, rng, 5);
}

TEST(ScalerBatch, MatrixTransformsMatchVectorTransforms) {
  nn::Standardizer s;
  s.fit({{1.0, 10.0, -3.0}, {2.0, 30.0, -1.0}, {4.0, 20.0, 0.5}});
  nn::MinMaxScaler mm({0.0, -1.0, 2.0}, {1.0, 1.0, 8.0});
  std::mt19937_64 rng(9);
  const Matrix x = randomMatrix(13, 3, rng);
  Matrix z, back, zmm;
  s.transform(x, z);
  s.inverse(z, back);
  mm.transform(x, zmm);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const Vector xi(x.row(r), x.row(r) + 3);
    const Vector zi = s.transform(xi);
    const Vector zmmi = mm.transform(xi);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(z(r, c), zi[c], 1e-12);
      EXPECT_NEAR(back(r, c), xi[c], 1e-9);
      EXPECT_NEAR(zmm(r, c), zmmi[c], 1e-12);
    }
  }
}

// ---------- surrogate + planner equivalence ----------

TEST(SurrogateBatch, PredictBatchMatchesPredictAfterTraining) {
  core::SurrogateConfig cfg;
  cfg.hiddenWidth = 24;
  core::SpiceSurrogate sur(4, 3, cfg, 17);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (int i = 0; i < 40; ++i) {
    const Vector x = {d(rng), d(rng), d(rng), d(rng)};
    sur.addSample(x, {x[0] + x[1], x[2] * 2.0 - x[3], std::sin(x[0])});
  }
  sur.train(rng);  // fits both scalers: the full transform chain is exercised

  const std::size_t batch = 50;
  Matrix block(batch, 4);
  for (std::size_t i = 0; i < block.size(); ++i) block.data()[i] = d(rng);
  Matrix preds;
  sur.predictBatch(block, preds);
  ASSERT_EQ(preds.rows(), batch);
  ASSERT_EQ(preds.cols(), 3u);
  for (std::size_t r = 0; r < batch; ++r) {
    const Vector xi(block.row(r), block.row(r) + 4);
    const Vector yi = sur.predict(xi);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(preds(r, c), yi[c], 1e-12);
  }
}

core::SizingProblem sphereCsp(double radius) {
  core::SizingProblem p;
  p.name = "sphere";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 101, false},
                               {"y", 0.0, 1.0, 101, false},
                               {"z", 0.0, 1.0, 101, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 1.0 - radius}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.62;
    const double dy = v[1] - 0.34;
    const double dz = v[2] - 0.58;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy + dz * dz)};
    return r;
  };
  return p;
}

/// The tentpole equivalence guarantee: batched planning must reproduce the
/// per-sample explorer's seeded SearchOutcome exactly — same solution, same
/// iteration count, same trace.
TEST(LocalExplorerBatch, BatchedPlanningReproducesPerSampleOutcome) {
  const auto prob = sphereCsp(0.04);
  const core::ValueFunction value(prob.measurementNames, prob.specs);
  auto eval = [&](const Vector& x) { return prob.evaluate(x, prob.corners[0]); };

  core::SearchOutcome outcomes[2];
  for (int batched = 0; batched < 2; ++batched) {
    core::LocalExplorerConfig cfg;
    cfg.seed = 29;
    cfg.batchedPlanning = batched == 1;
    core::LocalExplorer agent(prob.space, value, eval, cfg);
    outcomes[batched] = agent.run(1500);
  }
  const auto& legacy = outcomes[0];
  const auto& fast = outcomes[1];
  EXPECT_EQ(fast.solved, legacy.solved);
  EXPECT_EQ(fast.iterations, legacy.iterations);
  EXPECT_EQ(fast.bestValue, legacy.bestValue);
  EXPECT_EQ(fast.sizes, legacy.sizes);
  EXPECT_EQ(fast.trace.bestValueHistory, legacy.trace.bestValueHistory);
  EXPECT_EQ(fast.trace.radiusHistory, legacy.trace.radiusHistory);
  EXPECT_EQ(fast.trace.acceptedSteps, legacy.trace.acceptedSteps);
  EXPECT_EQ(fast.trace.rejectedSteps, legacy.trace.rejectedSteps);
}

core::SizingProblem multiCornerCsp() {
  core::SizingProblem p;
  p.name = "multi";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 101, false},
                               {"y", 0.0, 1.0, 101, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.9}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
               {sim::ProcessCorner::kSS, 1.0, 125.0},
               {sim::ProcessCorner::kFF, 1.0, -40.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner& c) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.4;
    const double dy = v[1] - 0.6;
    const double penalty = c.tempC > 100.0 ? 0.02 : 0.0;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy) - penalty};
    return r;
  };
  return p;
}

TEST(PvtSearchBatch, BatchedPlanningReproducesPerSampleOutcome) {
  const auto prob = multiCornerCsp();
  core::PvtSearchOutcome outcomes[2];
  for (int batched = 0; batched < 2; ++batched) {
    core::PvtSearchConfig cfg;
    cfg.seed = 21;
    cfg.explorer = core::autoSchedule(prob, cfg.seed);
    cfg.explorer.batchedPlanning = batched == 1;
    core::PvtSearch search(prob, cfg);
    outcomes[batched] = search.run(6000);
  }
  EXPECT_EQ(outcomes[1].solved, outcomes[0].solved);
  EXPECT_EQ(outcomes[1].totalSims, outcomes[0].totalSims);
  EXPECT_EQ(outcomes[1].sizes, outcomes[0].sizes);
  EXPECT_EQ(outcomes[1].cornersActivated, outcomes[0].cornersActivated);
}

// ---------- thread pool ----------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.workerCount(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlineModeHasNoWorkers) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.workerCount(), 0u);
  int sum = 0;
  pool.parallelFor(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  common::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(8,
                       [](std::size_t i) {
                         if (i == 5) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPool, PerTaskSeedsAreStableAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = common::perTaskSeed(42, i);
    EXPECT_EQ(s, common::perTaskSeed(42, i));  // pure function
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(common::perTaskSeed(42, 0), common::perTaskSeed(43, 0));
}

/// The parallel corner-evaluation pipeline must give identical results for
/// any thread count (results are merged in corner order after the join).
TEST(PvtSearchParallel, ThreadCountDoesNotChangeOutcome) {
  const auto prob = multiCornerCsp();
  core::PvtSearchOutcome serial;
  core::PvtSearchOutcome pooled;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::PvtSearchConfig cfg;
    cfg.strategy = core::PvtStrategy::kBruteForce;  // 3 corners active: real fan-out
    cfg.seed = 33;
    cfg.explorer = core::autoSchedule(prob, cfg.seed);
    cfg.evalThreads = threads;
    core::PvtSearch search(prob, cfg);
    (threads == 1 ? serial : pooled) = search.run(5000);
  }
  EXPECT_EQ(pooled.solved, serial.solved);
  EXPECT_EQ(pooled.totalSims, serial.totalSims);
  EXPECT_EQ(pooled.sizes, serial.sizes);
  EXPECT_EQ(pooled.ledger.totalBlocks(), serial.ledger.totalBlocks());
  ASSERT_EQ(pooled.cornerEvals.size(), serial.cornerEvals.size());
  for (std::size_t i = 0; i < pooled.cornerEvals.size(); ++i) {
    EXPECT_EQ(pooled.cornerEvals[i].ok, serial.cornerEvals[i].ok);
    EXPECT_EQ(pooled.cornerEvals[i].measurements,
              serial.cornerEvals[i].measurements);
  }
}

}  // namespace
}  // namespace trdse
