// Equivalence and correctness tests for the batched inference/training path:
// the blocked GEMM kernels, the batched layer/network APIs, batched surrogate
// scoring, batched trust-region planning, and the thread-parallel PVT
// evaluation pipeline. The batched code is designed to be *bitwise* identical
// to the per-sample path: the training path (forward/backward, gradients,
// optimizer steps) is checked with exact equality; the remaining tolerances
// (1e-12) are an upper bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/planner.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "core/surrogate.hpp"
#include "eval_stats_eq.hpp"
#include "gemm_reference.hpp"
#include "io/checkpoint.hpp"
#include "io/state_io.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/scaler.hpp"
#include "pool_task.hpp"

namespace trdse {
namespace {

using linalg::Matrix;
using linalg::Vector;
using testing_stats::countersOf;

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
/// zero coefficients, as DenseLayer::backward does). Shapes hit the row and
/// column tiles and their remainders; a row whose coefficients are
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

bool sameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

/// The register-tiled kernels against the 2×8 tiles they replaced
/// (tests/gemm_reference.hpp), bit for bit: every row count meets the 4-, 2-
/// and 1-row tiles, and every column count the 3-, 2- and 1-vector tiles, the
/// 4-wide tile and the scalar columns, at either native width. This TU
/// compiles with the library's flags, so the reference contracts `acc += a *
/// b` wherever the library may (linalg_test.cpp is contract-off and could
/// not judge a fused kernel).
TEST(Gemm, BitwiseMatchesReference) {
  const std::size_t ms[] = {1, 2, 3, 4, 5, 7, 13, 14, 16, 17, 800};
  const std::size_t depths[] = {1, 4, 9, 48, 70};
  const std::size_t ns[] = {1, 3, 4, 5, 8, 9, 12, 16, 17, 23, 24, 25, 48, 70};
  const double inf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng(5);
  Matrix c, ref, pack;
  for (const std::size_t m : ms)
    for (const std::size_t depth : depths)
      for (const std::size_t n : ns) {
        const Matrix a = randomMatrix(m, depth, rng);
        const Matrix b = randomMatrix(depth, n, rng);
        const Matrix bT = linalg::transpose(b);
        Vector bias(n);
        std::uniform_real_distribution<double> biasDist(-16.0, 16.0);
        for (double& v : bias) v = biasDist(rng);
        const auto shape = [&] {
          return std::to_string(m) + "x" + std::to_string(depth) + "x" +
                 std::to_string(n);
        };

        linalg::matMulInto(a, b, c);
        linalg::reference::matMulBiasInto(a, b, ref,
                                          static_cast<const double*>(nullptr));
        ASSERT_TRUE(sameBits(c, ref)) << "A·B " << shape();
        linalg::matMulTransBBiasInto(a, bT, bias, c, pack);
        linalg::reference::matMulBiasInto(a, b, ref, bias.data());
        ASSERT_TRUE(sameBits(c, ref)) << "A·B + bias " << shape();

        // C += A^T·B with A depth × m: zero coefficients scattered through
        // A, and a row of A that is all zero while its row of B carries
        // infinities — only the skip keeps 0·inf = NaN out of C.
        Matrix g = randomMatrix(depth, m, rng);
        for (std::size_t i = 0; i < g.size(); i += 3) g.data()[i] = 0.0;
        Matrix x = b;
        if (depth > 1) {
          const std::size_t dead = depth / 2;
          for (std::size_t r = 0; r < m; ++r) g(dead, r) = 0.0;
          for (std::size_t j = 0; j < n; j += 2) x(dead, j) = j % 4 == 0 ? inf : -inf;
        }
        Matrix acc = randomMatrix(m, n, rng);  // nonzero start: += semantics
        Matrix accRef = acc;
        linalg::gemmAtBAccum(g, x, acc);
        linalg::reference::gemmAtBAccum(g, x, accRef);
        ASSERT_TRUE(sameBits(acc, accRef)) << "C += A^T·B " << shape();
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
  std::vector<std::size_t> order(xs.size());
  for (int e = 0; e < 5; ++e) {
    nn::drawEpochOrder(rngA, order);
    const auto sa = nn::trainEpochMse(netA, optA, xm, ym, 16, order, ws);
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
  sur.drawShuffles(rng);
  sur.fit();  // fits both scalers: the full transform chain is exercised

  const std::size_t batch = 50;
  Matrix block(batch, 4);
  for (std::size_t i = 0; i < block.size(); ++i) block.data()[i] = d(rng);
  Matrix preds;
  core::SpiceSurrogate::PredictWorkspace ws;
  sur.predictBatch(block, preds, ws);
  ASSERT_EQ(preds.rows(), batch);
  ASSERT_EQ(preds.cols(), 3u);
  for (std::size_t r = 0; r < batch; ++r) {
    const Vector xi(block.row(r), block.row(r) + 4);
    const Vector yi = sur.predict(xi);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(preds(r, c), yi[c], 1e-12);
  }
}

/// An update is drawShuffles() then fit(), and every rng draw happens in
/// drawShuffles(): two surrogates given the same samples and the same draws
/// end each update with the same weights, Adam moments, loss and rng
/// position, even when one fits only after the other has drawn again.
TEST(SurrogateBatch, FitIsAPureFunctionOfTheDrawnShuffles) {
  core::SurrogateConfig cfg;
  cfg.hiddenWidth = 16;
  cfg.epochsPerUpdate = 7;
  core::SpiceSurrogate a(3, 2, cfg, 29);
  core::SpiceSurrogate b(3, 2, cfg, 29);
  std::mt19937_64 dataRng(5);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (int i = 0; i < 37; ++i) {  // 37 % 16 != 0: a ragged last batch
    const Vector x = {d(dataRng), d(dataRng), d(dataRng)};
    a.addSample(x, {x[0] * x[1], x[2] - x[0]});
    b.addSample(x, {x[0] * x[1], x[2] - x[0]});
  }
  std::mt19937_64 rngA(61);
  std::mt19937_64 rngB(61);
  for (int update = 0; update < 3; ++update) {
    a.drawShuffles(rngA);
    const double lossA = a.fit();
    b.drawShuffles(rngB);
    EXPECT_EQ(rngA, rngB) << "update " << update;
    const double lossB = b.fit();
    EXPECT_EQ(lossA, lossB) << "update " << update;
  }
  EXPECT_EQ(rngA, rngB);
  EXPECT_EQ(a.network().getParameters(), b.network().getParameters());
  EXPECT_EQ(a.optimizer().stepCount(), b.optimizer().stepCount());
  EXPECT_EQ(a.optimizer().firstMoments(), b.optimizer().firstMoments());
  EXPECT_EQ(a.optimizer().secondMoments(), b.optimizer().secondMoments());
  // The drawn orders are consumed: a second fit needs fresh draws.
  EXPECT_THROW(b.fit(), std::logic_error);
}

core::DesignSpace plannerSpace() {
  return core::DesignSpace({{"w", 1e-7, 1e-4, 64, true},
                            {"l", 4.5e-8, 1e-6, 24, true},
                            {"c", 1e-13, 5e-12, 40, true},
                            {"v", 0.1, 0.9, 17, false}});
}

/// Both planners draw their trust-region candidates through
/// CandidatePlanner. Row for row its block must equal the per-sample draw —
/// clamp into the unit cube, then toUnit(fromUnitSnapped(u)) — bitwise,
/// including on log-scale axes, and it must leave the rng exactly where the
/// per-sample loop would; with nothing to score on, nothing is picked.
TEST(PlannerBatch, DrawCandidatesMatchesPerSampleDraws) {
  const core::DesignSpace space = plannerSpace();
  const core::ValueFunction value({}, {});
  const Vector center = {0.95, 0.03, 0.5, 0.61};
  const double radius = 0.2;  // reaches past both cube faces: clamp matters
  const std::size_t count = 500;

  std::mt19937_64 rngBatch(41);
  std::mt19937_64 rngRef(41);
  common::ThreadPool pool(4);  // snapping runs in row chunks
  core::CandidatePlanner planner;
  EXPECT_EQ(planner.plan(space, value, {}, center, radius, count, rngBatch,
                         &pool),
            count);
  const Matrix& cand = planner.candidates();
  ASSERT_EQ(cand.rows(), count);
  ASSERT_EQ(cand.cols(), space.dim());
  for (const double v : planner.scores())
    EXPECT_EQ(v, std::numeric_limits<double>::infinity());

  std::uniform_real_distribution<double> unif(-1.0, 1.0);
  for (std::size_t s = 0; s < count; ++s) {
    Vector u(space.dim());
    for (std::size_t d = 0; d < space.dim(); ++d)
      u[d] = std::clamp(center[d] + radius * unif(rngRef), 0.0, 1.0);
    const Vector ref = space.toUnit(space.fromUnitSnapped(u));
    for (std::size_t d = 0; d < space.dim(); ++d)
      ASSERT_EQ(cand(s, d), ref[d]) << "row " << s << " dim " << d;
  }
  EXPECT_EQ(rngBatch, rngRef);
}

/// Chunked planning — row chunks on a pool, each on its own workspace — must
/// equal the inline whole-block plan bitwise: candidates, every per-row
/// score, the pick, and the rng position. Odd block sizes put the last row in
/// the GEMM tile's remainder path; on 4 threads 7 rows split into one-tile
/// chunks.
TEST(PlannerBatch, ChunkedScoringMatchesWholeBlock) {
  const core::DesignSpace space = plannerSpace();
  const core::ValueFunction value(
      {"a", "b", "c"}, {{"a", core::SpecKind::kAtLeast, 0.4},
                        {"b", core::SpecKind::kAtMost, 0.2},
                        {"c", core::SpecKind::kAtLeast, -0.1}});
  core::SurrogateConfig cfg;
  cfg.hiddenWidth = 20;
  cfg.epochsPerUpdate = 5;
  std::vector<core::SpiceSurrogate> surrogates;
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (std::uint64_t k = 0; k < 3; ++k) {  // one surrogate per corner
    surrogates.emplace_back(space.dim(), 3, cfg, 50 + k);
    const double shift = 0.1 * static_cast<double>(k);
    for (int i = 0; i < 30; ++i) {
      const Vector x = {d(rng), d(rng), d(rng), d(rng)};
      surrogates.back().addSample(
          x, {x[0] - shift, x[1] * x[2], std::sin(x[3]) - shift});
    }
    surrogates.back().drawShuffles(rng);
    surrogates.back().fit();
  }
  std::vector<const core::SpiceSurrogate*> scoring;
  for (const auto& sur : surrogates) scoring.push_back(&sur);

  const Vector center = {0.4, 0.55, 0.5, 0.3};
  for (const std::size_t count :
       {std::size_t{7}, std::size_t{800}, std::size_t{801}}) {
    std::mt19937_64 rngWhole(97);
    core::CandidatePlanner whole;
    const std::size_t pick = whole.plan(space, value, scoring, center, 0.15,
                                        count, rngWhole, nullptr);
    ASSERT_LT(pick, count);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{3},
                                      std::size_t{4}}) {
      common::ThreadPool pool(threads);
      std::mt19937_64 rngChunked(97);
      core::CandidatePlanner chunked;
      std::size_t chunkedPick = 0;
      // Called from inside a task, as a job's step is.
      pool.parallelFor(1, [&](std::size_t) {
        chunkedPick = chunked.plan(space, value, scoring, center, 0.15, count,
                                   rngChunked, common::ThreadPool::current());
      });
      EXPECT_EQ(chunkedPick, pick) << count << " rows, " << threads;
      EXPECT_EQ(rngChunked, rngWhole);
      ASSERT_EQ(chunked.scores().size(), count);
      for (std::size_t s = 0; s < count; ++s)
        ASSERT_EQ(chunked.scores()[s], whole.scores()[s])
            << count << " rows, " << threads << " threads, row " << s;
      const Matrix& a = chunked.candidates();
      const Matrix& b = whole.candidates();
      ASSERT_EQ(a.rows(), b.rows());
      for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i]) << count << " rows, " << threads;
    }

    // The pick is the first best min-over-surrogates score, computed per
    // sample.
    double best = -std::numeric_limits<double>::infinity();
    std::size_t refPick = count;
    for (std::size_t s = 0; s < count; ++s) {
      const Matrix& c = whole.candidates();
      const Vector x(c.row(s), c.row(s) + space.dim());
      double v = std::numeric_limits<double>::infinity();
      for (const auto& sur : surrogates)
        v = std::min(v, value.plannerScore(sur.predict(x)));
      EXPECT_NEAR(whole.scores()[s], v, 1e-12);
      if (v > best) {
        best = v;
        refPick = s;
      }
    }
    EXPECT_EQ(pick, refPick);
  }
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

// ---------- thread pool ----------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.workerCount(), 3u);  // the calling thread is the fourth
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

/// Runs `body`, and ends the test binary with a failure (instead of hanging
/// the suite until the ctest timeout) when it has not returned within
/// `limit`: a deadlocked pool cannot be recovered in-process.
void failFastUnlessDoneWithin(std::chrono::seconds limit,
                              const std::function<void()>& body) {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_for(lock, limit, [&] { return done; })) {
      std::fprintf(stderr, "%s: did not finish within %lld s (deadlock)\n",
                   ::testing::UnitTest::GetInstance()->current_test_info()->name(),
                   static_cast<long long>(limit.count()));
      std::_Exit(1);
    }
  });
  const auto finish = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    cv.notify_one();
    watchdog.join();
  };
  try {
    body();
  } catch (...) {
    finish();
    throw;
  }
  finish();
}

/// Every task of a pool whose threads are all busy fans out again: the
/// nested calls must complete (the caller works through its own items and
/// never waits for a busy worker to pick up a helper job).
TEST(ThreadPool, NestedParallelForInABusyPoolCompletes) {
  common::ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  failFastUnlessDoneWithin(std::chrono::seconds(20), [&] {
    pool.parallelFor(8, [&](std::size_t i) {
      pool.parallelFor(16, [&](std::size_t j) {
        pool.parallelFor(2, [&](std::size_t k) { sum += i * 100 + j + k; });
      });
    });
  });
  // Σ_i Σ_j Σ_k (100 i + j + k) over 8 × 16 × 2 items.
  EXPECT_EQ(sum.load(), 2u * 16u * 2800u + 8u * 2u * 120u + 8u * 16u);
}

TEST(ThreadPool, CurrentNamesThePoolOfTheRunningTask) {
  EXPECT_EQ(common::ThreadPool::current(), nullptr);
  common::ThreadPool outer(3);
  common::ThreadPool inner(2);
  std::vector<common::ThreadPool*> seen(6, nullptr);
  std::vector<common::ThreadPool*> seenNested(6, nullptr);
  std::vector<common::ThreadPool*> afterNested(6, nullptr);
  outer.parallelFor(6, [&](std::size_t i) {
    seen[i] = common::ThreadPool::current();
    inner.parallelFor(2, [&](std::size_t k) {
      if (k == 0) seenNested[i] = common::ThreadPool::current();
    });
    afterNested[i] = common::ThreadPool::current();
  });
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(seen[i], &outer) << i;  // on the caller and on the workers
    EXPECT_EQ(seenNested[i], &inner) << i;
    EXPECT_EQ(afterNested[i], &outer) << i;  // restored after a nested call
  }
  EXPECT_EQ(common::ThreadPool::current(), nullptr);  // restored afterwards

  common::ThreadPool inlinePool(1);
  common::ThreadPool* inlineSeen = nullptr;
  inlinePool.parallelFor(1, [&](std::size_t) {
    inlineSeen = common::ThreadPool::current();
  });
  EXPECT_EQ(inlineSeen, &inlinePool);
  EXPECT_EQ(common::ThreadPool::current(), nullptr);

  // Restored on the exception path too.
  EXPECT_THROW(outer.parallelFor(
                   1, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  EXPECT_EQ(common::ThreadPool::current(), nullptr);
}

TEST(ThreadPool, NeverRunsMoreTasksThanItsSizeNestedCallsIncluded) {
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    common::ThreadPool pool(threads);
    std::atomic<std::size_t> running{0};
    std::atomic<std::size_t> peak{0};
    const auto work = [&] {
      const std::size_t now = ++running;
      std::size_t p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      --running;
    };
    pool.parallelFor(6, [&](std::size_t) {
      pool.parallelFor(5, [&](std::size_t) { work(); });
      work();
    });
    EXPECT_LE(peak.load(), threads);
    EXPECT_GE(peak.load(), 1u);
  }
}

TEST(ThreadPool, NestedExceptionSurfacesAtTheNestedCall) {
  common::ThreadPool pool(4);
  std::vector<int> caught(4, 0);
  std::atomic<int> ran{0};
  pool.parallelFor(4, [&](std::size_t i) {
    try {
      pool.parallelFor(6, [&](std::size_t j) {
        ++ran;
        if (j == 3) throw std::runtime_error("nested");
      });
    } catch (const std::runtime_error&) {
      caught[i] = 1;
    }
  });
  EXPECT_EQ(caught, std::vector<int>(4, 1));
  EXPECT_EQ(ran.load(), 24);  // every item of every nested call still ran
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

/// The checkpoint blob of a search with its one wall-clock field — the
/// engine's backendSeconds, measurement rather than state — taken out; every
/// other byte is compared.
std::string blobWithoutWallClock(const std::string& blob) {
  const io::CheckpointReader r("mem", blob);
  std::string out;
  for (const char* name : {"fingerprint", "rng", "search", "corners"}) {
    io::SectionReader s = r.section(name);
    out += s.raw(s.remaining());
  }
  io::SectionReader probe = r.section("engine");
  const std::size_t total = probe.remaining();
  const std::uint64_t memo = probe.u64();
  for (std::uint64_t i = 0; i < memo; ++i) {
    (void)probe.indexVec();
    (void)probe.u64();
    (void)io::readEvalResult(probe);
  }
  pvt::EdaLedger ledger;
  io::readLedger(probe, ledger);
  for (int i = 0; i < 4; ++i) (void)probe.u64();  // requests..sharedHits
  const std::size_t head = total - probe.remaining();
  io::SectionReader engine = r.section("engine");
  out += engine.raw(head);
  (void)engine.f64();  // backendSeconds
  out += engine.raw(engine.remaining());
  return out;
}

/// A search's outcome does not depend on the pool it is stepped in: off a
/// pool, or as a task of 1, 2 or 4 threads, on which its TRM steps fit the
/// corner surrogates concurrently, score candidates in row chunks, and fan
/// the corner simulations out. Clean and under ci_smoke_faulty's fault plan
/// (seed 2021, 30% non-convergence, 5% non-finite, two attempts), the
/// outcome, ledger, EvalStats and checkpoint blob are equal bit for bit.
TEST(PvtSearchParallel, ThreadCountDoesNotChangeOutcome) {
  auto prob = multiCornerCsp();
  // Out of reach at the hot corner (its best is 0.98): the search spends its
  // whole budget in TRM steps on all three corners.
  prob.specs = {{"closeness", core::SpecKind::kAtLeast, 0.99}};
  struct Run {
    core::PvtSearchOutcome outcome;
    std::string blob;
  };
  const auto run = [&](std::size_t pool, bool faulty) {
    core::PvtSearchConfig cfg;
    cfg.strategy = core::PvtStrategy::kBruteForce;  // 3 corners active: real fan-out
    cfg.seed = 33;
    cfg.explorer = core::autoSchedule(prob);
    core::PvtSearch search(prob, cfg);
    if (faulty) {
      sim::FaultPlanConfig plan;
      plan.seed = 2021;
      plan.nonConvergenceRate = 0.30;
      plan.nonFiniteRate = 0.05;
      search.engine().setRetryPolicy(eval::RetryPolicy{/*maxAttempts=*/2});
      search.engine().injectFaults(
          std::make_shared<const sim::FaultPlan>(plan), prob.name);
    }
    Run r;
    testing_pool::inPoolTask(pool, [&] { r.outcome = search.run(300); });
    r.blob = search.save();
    return r;
  };
  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "faulty" : "clean");
    const Run serial = run(0, faulty);
    // Well past the 3 x 10 init samples: about 90 three-corner TRM steps.
    EXPECT_FALSE(serial.outcome.solved);
    EXPECT_GE(serial.outcome.totalSims, 300u);
    EXPECT_EQ(serial.outcome.evalStats.failures > 0, faulty);

    for (const std::size_t pool : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
      SCOPED_TRACE("pool " + std::to_string(pool));
      const Run other = run(pool, faulty);
      const core::PvtSearchOutcome& a = other.outcome;
      const core::PvtSearchOutcome& b = serial.outcome;
      EXPECT_EQ(a.solved, b.solved);
      EXPECT_EQ(a.totalSims, b.totalSims);
      EXPECT_EQ(a.sizes, b.sizes);
      EXPECT_EQ(a.cornersActivated, b.cornersActivated);
      ASSERT_EQ(a.cornerEvals.size(), b.cornerEvals.size());
      for (std::size_t i = 0; i < a.cornerEvals.size(); ++i) {
        EXPECT_EQ(a.cornerEvals[i].ok, b.cornerEvals[i].ok);
        EXPECT_EQ(a.cornerEvals[i].measurements,
                  b.cornerEvals[i].measurements);
      }
      ASSERT_EQ(a.ledger.totalBlocks(), b.ledger.totalBlocks());
      for (std::size_t i = 0; i < a.ledger.blocks().size(); ++i) {
        const pvt::EdaBlock& x = a.ledger.blocks()[i];
        const pvt::EdaBlock& y = b.ledger.blocks()[i];
        EXPECT_EQ(x.cornerIndex, y.cornerIndex) << i;
        EXPECT_EQ(x.kind, y.kind) << i;
        EXPECT_EQ(x.meetsSpec, y.meetsSpec) << i;
        EXPECT_EQ(x.cached, y.cached) << i;
        EXPECT_EQ(x.failed, y.failed) << i;
        EXPECT_EQ(x.retries, y.retries) << i;
        EXPECT_EQ(x.backoff, y.backoff) << i;
      }
      EXPECT_EQ(countersOf(a.evalStats), countersOf(b.evalStats));
      EXPECT_TRUE(blobWithoutWallClock(other.blob) ==
                  blobWithoutWallClock(serial.blob));
    }
  }
}

}  // namespace
}  // namespace trdse
