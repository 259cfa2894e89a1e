#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/pvt_search.hpp"
#include "eval/shared_cache.hpp"
#include "eval_stats_eq.hpp"
#include "extra_trees_reference.hpp"
#include "opt/extra_trees.hpp"
#include "opt/random_search.hpp"
#include "opt/strategy.hpp"
#include "opt/tree_bayes_opt.hpp"
#include "rl/rl_strategy.hpp"

namespace trdse::opt {
namespace {

using testing_stats::countersOf;

/// Synthetic 2-D CSP used by the optimizer tests: feasible iff both
/// measurements clear their limits; the feasible region is a small disc.
core::SizingProblem syntheticProblem(double feasibleRadius = 0.15) {
  core::SizingProblem p;
  p.name = "synthetic";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 201, false},
                               {"y", 0.0, 1.0, 201, false}});
  p.measurementNames = {"closeness", "budget"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 1.0 - feasibleRadius},
             {"budget", core::SpecKind::kAtMost, 1.6}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.7;
    const double dy = v[1] - 0.3;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy), v[0] + v[1]};
    return r;
  };
  return p;
}

TEST(ExtraTrees, FitsConstantFunction) {
  std::vector<linalg::Vector> xs = {{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.2}};
  std::vector<double> ys = {2.0, 2.0, 2.0};
  ExtraTreesRegressor model;
  model.fit(xs, ys, 1);
  const Prediction p = model.predict({0.3, 0.3});
  EXPECT_NEAR(p.mean, 2.0, 1e-9);
  EXPECT_NEAR(p.std, 0.0, 1e-9);
}

TEST(ExtraTrees, LearnsStepFunction) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  for (int i = 0; i < 400; ++i) {
    const double x = d(rng);
    xs.push_back({x});
    ys.push_back(x < 0.5 ? 0.0 : 1.0);
  }
  ExtraTreesRegressor model;
  model.fit(xs, ys, 3);
  EXPECT_LT(model.predict({0.2}).mean, 0.2);
  EXPECT_GT(model.predict({0.8}).mean, 0.8);
}

TEST(ExtraTrees, LearnsSmoothSurface) {
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  for (int i = 0; i < 600; ++i) {
    const double a = d(rng);
    const double b = d(rng);
    xs.push_back({a, b});
    ys.push_back(std::sin(3.0 * a) + b * b);
  }
  ExtraTreesRegressor model;
  model.fit(xs, ys, 5);
  double err = 0.0;
  int n = 0;
  for (double a = 0.1; a < 1.0; a += 0.2)
    for (double b = 0.1; b < 1.0; b += 0.2) {
      err += std::abs(model.predict({a, b}).mean - (std::sin(3.0 * a) + b * b));
      ++n;
    }
  EXPECT_LT(err / n, 0.15);
}

TEST(ExtraTrees, UncertaintyHigherNearDecisionBoundary) {
  // Randomized thresholds disagree most where the target changes fastest, so
  // the across-tree spread peaks near the step and vanishes on the plateaus.
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (int i = 0; i < 300; ++i) {
    const double a = d(rng);
    xs.push_back({a});
    ys.push_back(a < 0.5 ? 0.0 : 1.0);
  }
  ExtraTreesRegressor model;
  model.fit(xs, ys, 9);
  EXPECT_GT(model.predict({0.5}).std, model.predict({0.1}).std);
  EXPECT_GT(model.predict({0.5}).std, model.predict({0.9}).std);
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The forest's fit and prediction equal the per-trial reference loops bit
/// for bit: on continuous data and on grid-snapped data whose ties make
/// equal split scores and empty threshold ranges common, with constant
/// columns and duplicate rows, for split-trial counts below, at and beyond
/// one scoring block, and for shallow trees and one-sample leaves. Each
/// fitted forest predicts its training rows and fresh points, one at a time
/// and as one block whose length is rarely a multiple of the walk count.
TEST(ExtraTrees, BitwiseMatchesReference) {
  const ExtraTreesConfig configs[] = {
      {},              // 30 trees, leaves of 3, depth 18, 8 trials
      {5, 1, 18, 1},   // one trial, one-sample leaves
      {7, 2, 3, 16},   // two full trial blocks, depth 3
      {4, 1, 18, 11},  // a full block and a partial one
  };
  std::size_t fits = 0;
  std::size_t mismatches = 0;
  for (const std::size_t dim : {1u, 2u, 9u, 13u})
    for (const std::size_t n : {1u, 2u, 3u, 4u, 7u, 64u, 157u, 300u})
      for (const int levels : {0, 2, 16, 64}) {
        std::mt19937_64 rng(1000 * dim + 10 * n + levels);
        std::uniform_real_distribution<double> unif(0.0, 1.0);
        const auto draw = [&] {
          const double u = unif(rng);
          return levels == 0 ? u : std::round(u * (levels - 1)) / (levels - 1);
        };
        // 16 levels: the last column is constant. 64 levels: the second
        // half of the rows repeats the first. 2 levels: half the zeros are
        // -0.0, and coarse targets make split scores tie too.
        std::vector<linalg::Vector> xs(n, linalg::Vector(dim));
        std::vector<double> ys(n);
        for (std::size_t r = 0; r < n; ++r) {
          if (levels == 64 && r >= (n + 1) / 2) {
            xs[r] = xs[r - (n + 1) / 2];
          } else {
            for (std::size_t d = 0; d < dim; ++d) xs[r][d] = draw();
            if (levels == 16 && dim > 1) xs[r][dim - 1] = 0.25;
            if (levels == 2 && r % 2 == 1)
              for (double& v : xs[r]) v = v == 0.0 ? -0.0 : v;
          }
          double y = 0.0;
          for (const double v : xs[r]) y += std::sin(3.0 * v);
          ys[r] = levels == 2 ? std::round(2.0 * y) / 2.0 : y;
        }
        std::vector<double> queries;
        for (const auto& x : xs)
          queries.insert(queries.end(), x.begin(), x.end());
        for (std::size_t q = 0; q < 13 * dim; ++q) queries.push_back(draw());
        const std::size_t rows = queries.size() / dim;

        for (const ExtraTreesConfig& cfg : configs) {
          const std::uint64_t seed = fits + 1;
          reference::ExtraTreesRegressor ref(cfg);
          ref.fit(xs, ys, seed);
          ExtraTreesRegressor forest(cfg);
          forest.fit(xs, ys, seed);
          ++fits;
          std::vector<Prediction> block(rows);
          forest.predict(queries.data(), rows, block.data());
          for (std::size_t r = 0; r < rows; ++r) {
            const linalg::Vector q(queries.begin() + r * dim,
                                   queries.begin() + (r + 1) * dim);
            const Prediction want = ref.predict(q);
            const Prediction one = forest.predict(q);
            const bool same = sameBits(one.mean, want.mean) &&
                              sameBits(one.std, want.std) &&
                              sameBits(block[r].mean, want.mean) &&
                              sameBits(block[r].std, want.std);
            if (!same && ++mismatches <= 5)
              ADD_FAILURE() << "dim " << dim << " n " << n << " levels "
                            << levels << " trials " << cfg.splitTrials
                            << " row " << r << ": mean " << one.mean << " / "
                            << block[r].mean << " vs " << want.mean
                            << ", std " << one.std << " / " << block[r].std
                            << " vs " << want.std;
          }
        }
      }
  EXPECT_EQ(fits, 512u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(RandomSearch, SolvesEasyProblem) {
  const auto prob = syntheticProblem(0.4);  // large feasible disc
  RandomSearch rs(prob, 3, 2000);
  const auto out = rs.run();
  EXPECT_TRUE(out.solved);
  EXPECT_LT(out.iterations, 2000u);
}

TEST(RandomSearch, RespectsBudgetOnHardProblem) {
  const auto prob = syntheticProblem(0.01);  // tiny disc
  RandomSearch rs(prob, 3, 300);
  const auto out = rs.run();
  EXPECT_LE(out.iterations, 300u);
  if (!out.solved) {
    EXPECT_EQ(out.iterations, 300u);
  }
}

TEST(RandomSearch, MultiCornerCountsEachCheck) {
  auto prob = syntheticProblem(1.5);  // everything feasible
  prob.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
                  {sim::ProcessCorner::kSS, 1.0, 27.0},
                  {sim::ProcessCorner::kFF, 1.0, 27.0}};
  RandomSearch rs(prob, 5, 100);
  const auto out = rs.run();
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.iterations, 3u);  // one point, three corner checks
}

TEST(TreeBayesOpt, SolvesSyntheticFasterThanRandomOnAverage) {
  const auto prob = syntheticProblem(0.08);
  std::vector<double> boIters;
  std::vector<double> rsIters;
  for (int r = 0; r < 5; ++r) {
    TreeBayesOptConfig cfg;
    cfg.seed = 100 + r;
    TreeBayesOpt bo(prob, cfg, 2000);
    const auto b = bo.run();
    EXPECT_TRUE(b.solved);
    boIters.push_back(static_cast<double>(b.iterations));
    RandomSearch rs(prob, 200 + r, 2000);
    const auto s = rs.run();
    rsIters.push_back(static_cast<double>(s.iterations));
  }
  double boMean = 0.0;
  double rsMean = 0.0;
  for (double v : boIters) boMean += v;
  for (double v : rsIters) rsMean += v;
  EXPECT_LT(boMean, rsMean);
}

TEST(TreeBayesOpt, ReportsBestEvenWhenUnsolved) {
  const auto prob = syntheticProblem(0.005);
  TreeBayesOptConfig cfg;
  cfg.seed = 31;
  TreeBayesOpt bo(prob, cfg, 150);
  const auto out = bo.run();
  EXPECT_FALSE(out.sizes.empty());
  EXPECT_GT(out.bestValue, core::kFailedValue);
  EXPECT_FALSE(out.bestMeasurements.empty());
}

/// An unsolved TRM-DRL job reports its best point like the other strategies
/// do — the highest worst-corner Value it simulated, with that corner's
/// measurements — and budget-sliced stepping reports the same one.
TEST(PvtSearchStrategy, ReportsBestEvenWhenUnsolved) {
  auto prob = syntheticProblem(-0.01);  // closeness >= 1.01: unsolvable
  prob.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
                  {sim::ProcessCorner::kSS, 1.0, 125.0}};
  const auto whole = makeStrategy("pvt_search", prob, 31, 150);
  const StrategyOutcome out = whole->run();
  ASSERT_FALSE(out.solved);
  ASSERT_EQ(out.sizes.size(), prob.space.dim());
  EXPECT_EQ(prob.space.snap(out.sizes), out.sizes);
  EXPECT_GT(out.bestValue, core::kFailedValue);
  EXPECT_LT(out.bestValue, 0.0);
  EXPECT_EQ(out.bestMeasurements.size(), prob.measurementNames.size());

  const auto sliced = makeStrategy("pvt_search", prob, 31, 150);
  for (std::size_t target = 16; !sliced->finished(); target += 16)
    (void)sliced->step(target);
  EXPECT_EQ(sliced->outcome().sizes, out.sizes);
  EXPECT_EQ(sliced->outcome().bestValue, out.bestValue);
  EXPECT_EQ(sliced->outcome().bestMeasurements, out.bestMeasurements);
}

TEST(TreeBayesOpt, HandlesFailingSimulations) {
  auto prob = syntheticProblem(0.3);
  auto inner = prob.evaluate;
  prob.evaluate = [inner](const linalg::Vector& v, const sim::PvtCorner& c) {
    if (v[0] < 0.25) return core::EvalResult{};  // dead region
    return inner(v, c);
  };
  TreeBayesOptConfig cfg;
  cfg.seed = 17;
  TreeBayesOpt bo(prob, cfg, 1500);
  const auto out = bo.run();
  EXPECT_TRUE(out.solved);
}

// ---- Pre-refactor parity -------------------------------------------------
//
// The engine-backed strategies must reproduce the original hand-rolled
// evaluation loops bitwise: same RNG consumption, same budget checks in the
// same places, same early exits. The reference implementations below are the
// pre-refactor run() bodies, verbatim (evaluating through problem.evaluate
// directly, counting iterations ad hoc).

struct LegacyOutcome {
  bool solved = false;
  std::size_t iterations = 0;
  linalg::Vector sizes;
  double bestValue = core::kFailedValue;
  linalg::Vector bestMeasurements;
};

LegacyOutcome legacyRandomSearch(const core::SizingProblem& problem,
                                 std::uint64_t seed,
                                 std::size_t maxSimulations) {
  core::ValueFunction value(problem.measurementNames, problem.specs);
  std::mt19937_64 rng(seed);
  LegacyOutcome out;
  while (out.iterations < maxSimulations) {
    const linalg::Vector x = problem.space.randomPoint(rng);
    bool allPass = true;
    double worst = 0.0;
    for (const auto& corner : problem.corners) {
      if (out.iterations >= maxSimulations) return out;
      const core::EvalResult r = problem.evaluate(x, corner);
      ++out.iterations;
      const double v = value.valueOf(r);
      worst = std::min(worst, v);
      if (!r.ok || !value.satisfied(r.measurements)) {
        allPass = false;
        break;
      }
    }
    if (worst > out.bestValue) {
      out.bestValue = worst;
      out.sizes = x;
    }
    if (allPass) {
      out.solved = true;
      out.sizes = x;
      return out;
    }
  }
  return out;
}

LegacyOutcome legacyTreeBayesOpt(const core::SizingProblem& problem,
                                 const TreeBayesOptConfig& config,
                                 std::size_t maxSimulations) {
  core::ValueFunction value(problem.measurementNames, problem.specs);
  std::mt19937_64 rng(config.seed);
  LegacyOutcome out;
  const auto& space = problem.space;
  const double nSpecs = static_cast<double>(problem.specs.size());
  const double failTarget = -config.failedPenaltyPerSpec * nSpecs;

  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  linalg::Vector bestUnit;

  const auto evaluateAllCorners = [&](const linalg::Vector& sizes,
                                      linalg::Vector* worstMeas) {
    double worst = 0.0;
    for (const auto& corner : problem.corners) {
      if (out.iterations >= maxSimulations) break;
      const core::EvalResult r = problem.evaluate(sizes, corner);
      ++out.iterations;
      const double v = value.valueOf(r);
      if (v < worst) {
        worst = v;
        if (worstMeas != nullptr && r.ok) *worstMeas = r.measurements;
      } else if (worstMeas != nullptr && worstMeas->empty() && r.ok) {
        *worstMeas = r.measurements;
      }
      if (v <= core::kFailedValue) break;
    }
    return worst;
  };
  const auto observe = [&](const linalg::Vector& rawSizes) {
    const linalg::Vector sizes = space.snap(rawSizes);
    linalg::Vector meas;
    const double v = evaluateAllCorners(sizes, &meas);
    const double target = v <= core::kFailedValue ? failTarget : v;
    xs.push_back(space.toUnit(sizes));
    ys.push_back(target);
    if (v > out.bestValue) {
      out.bestValue = v;
      out.sizes = sizes;
      out.bestMeasurements = meas;
      bestUnit = xs.back();
    }
    if (v >= 0.0) {
      out.solved = true;
      out.sizes = sizes;
    }
  };

  for (std::size_t i = 0; i < config.initSamples; ++i) {
    if (out.iterations >= maxSimulations || out.solved) return out;
    observe(space.randomPoint(rng));
  }

  reference::ExtraTreesRegressor model;
  std::normal_distribution<double> gauss(0.0, config.localSigma);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::size_t lastFitSize = 0;

  while (out.iterations < maxSimulations && !out.solved) {
    const std::size_t refitGap = std::max<std::size_t>(
        1, xs.size() / std::max<std::size_t>(1, config.refitDivisor));
    if (!model.fitted() || xs.size() - lastFitSize >= refitGap) {
      model.fit(xs, ys, config.seed + out.iterations);
      lastFitSize = xs.size();
    }
    const double progress = static_cast<double>(out.iterations) /
                            static_cast<double>(maxSimulations);
    const double kappa =
        config.kappaStart + (config.kappaEnd - config.kappaStart) * progress;

    linalg::Vector bestCand;
    double bestAcq = -std::numeric_limits<double>::infinity();
    const std::size_t nLocal = static_cast<std::size_t>(
        config.localFraction * static_cast<double>(config.candidatePool));
    for (std::size_t c = 0; c < config.candidatePool; ++c) {
      linalg::Vector u(space.dim());
      if (c < nLocal && !bestUnit.empty()) {
        for (std::size_t d = 0; d < space.dim(); ++d)
          u[d] = std::clamp(bestUnit[d] + gauss(rng), 0.0, 1.0);
      } else {
        for (std::size_t d = 0; d < space.dim(); ++d) u[d] = unif(rng);
      }
      const Prediction p = model.predict(u);
      const double acq = p.mean + kappa * p.std;
      if (acq > bestAcq) {
        bestAcq = acq;
        bestCand = u;
      }
    }
    if (bestCand.empty()) break;
    observe(space.fromUnit(bestCand));
  }
  return out;
}

core::SizingProblem multiCornerProblem(double feasibleRadius) {
  auto prob = syntheticProblem(feasibleRadius);
  prob.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
                  {sim::ProcessCorner::kSS, 0.9, 125.0},
                  {sim::ProcessCorner::kFF, 1.1, -40.0}};
  return prob;
}

TEST(RandomSearch, BitwiseMatchesPreRefactorLoop) {
  struct Case {
    double radius;
    std::uint64_t seed;
    std::size_t budget;
    bool multiCorner;
  };
  const Case cases[] = {{0.4, 3, 2000, false},   // solves
                        {0.01, 3, 300, false},   // exhausts the budget
                        {1.5, 5, 100, true},     // multi-corner, solves
                        {0.01, 9, 100, true}};   // multi-corner, exhausts
  for (const Case& c : cases) {
    const auto prob =
        c.multiCorner ? multiCornerProblem(c.radius) : syntheticProblem(c.radius);
    const LegacyOutcome legacy = legacyRandomSearch(prob, c.seed, c.budget);
    RandomSearch rs(prob, c.seed, c.budget);
    const StrategyOutcome& out = rs.run();
    EXPECT_EQ(out.solved, legacy.solved);
    EXPECT_EQ(out.iterations, legacy.iterations);
    EXPECT_EQ(out.sizes, legacy.sizes);
    EXPECT_EQ(out.bestValue, legacy.bestValue);
  }
}

TEST(TreeBayesOpt, BitwiseMatchesPreRefactorLoop) {
  struct Case {
    double radius;
    std::uint64_t seed;
    std::size_t budget;
    bool multiCorner;
    std::size_t candidatePool;
  };
  // The 203-candidate pool ends mid-block, and its local/global boundary
  // (candidate 71) falls inside the second block. The 65-candidate pool's
  // last block holds one candidate, which wins some acquisitions of that
  // run: a scan that skipped a block's last candidate fails it.
  const Case cases[] = {{0.08, 100, 2000, false, 600},  // solves
                        {0.005, 31, 150, false, 600},   // exhausts the budget
                        {0.3, 21, 400, true, 600},      // multi-corner sweeps
                        {0.005, 44, 160, false, 203},   // a partial last block
                        {0.005, 44, 300, false, 65}};   // a one-row last block
  for (const Case& c : cases) {
    const auto prob =
        c.multiCorner ? multiCornerProblem(c.radius) : syntheticProblem(c.radius);
    TreeBayesOptConfig cfg;
    cfg.seed = c.seed;
    cfg.candidatePool = c.candidatePool;
    const LegacyOutcome legacy = legacyTreeBayesOpt(prob, cfg, c.budget);
    TreeBayesOpt bo(prob, cfg, c.budget);
    const StrategyOutcome& out = bo.run();
    EXPECT_EQ(out.solved, legacy.solved);
    EXPECT_EQ(out.iterations, legacy.iterations);
    EXPECT_EQ(out.sizes, legacy.sizes);
    EXPECT_EQ(out.bestValue, legacy.bestValue);
    EXPECT_EQ(out.bestMeasurements, legacy.bestMeasurements);
  }
}

// The budget-accounting satellite: the ad-hoc iteration counters used to
// drift from any block-level bookkeeping; with every evaluation routed
// through the engine, ledger == iterations == requests, always.

TEST(RandomSearch, LedgerAgreesWithIterationCount) {
  for (const std::size_t budget : {100u, 301u}) {
    const auto prob = multiCornerProblem(0.05);
    RandomSearch rs(prob, 13, budget);
    const StrategyOutcome& out = rs.run();
    EXPECT_EQ(out.ledger.totalBlocks(), out.iterations);
    EXPECT_EQ(out.evalStats.requests, out.iterations);
    EXPECT_EQ(out.evalStats.simulated + out.evalStats.cacheHits +
                  out.evalStats.sharedHits,
              out.iterations);
    EXPECT_EQ(out.ledger.searchBlocks(), out.iterations);  // RS never verifies
  }
}

TEST(TreeBayesOpt, LedgerAgreesWithIterationCount) {
  const auto prob = multiCornerProblem(0.05);
  TreeBayesOptConfig cfg;
  cfg.seed = 19;
  TreeBayesOpt bo(prob, cfg, 250);
  const StrategyOutcome& out = bo.run();
  EXPECT_EQ(out.ledger.totalBlocks(), out.iterations);
  EXPECT_EQ(out.evalStats.requests, out.iterations);
  EXPECT_EQ(out.evalStats.simulated + out.evalStats.cacheHits +
                out.evalStats.sharedHits,
            out.iterations);
}

// ---- Lookahead lane packing -----------------------------------------------
//
// On a backend wider than one lane, RandomSearch, TreeBayesOpt and rl_policy
// offer their next requests with each one-point request, and PvtSearch its
// episode's later init samples with each init sample's pool batch; the
// engine simulates them in the same pass. Every consumed request must
// account exactly as on a width-1 backend, where nothing is looked ahead.

/// Five corners whose feasible discs shift with the corner, and a hot corner
/// whose simulation fails outright in one region: random sweeps fail at
/// different corners, and TreeBayesOpt's sweeps stop early on hard failures.
core::SizingProblem lookaheadProblem(double feasibleRadius) {
  core::SizingProblem p = syntheticProblem(feasibleRadius);
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
               {sim::ProcessCorner::kSS, 0.9, 125.0},
               {sim::ProcessCorner::kFF, 1.1, -40.0},
               {sim::ProcessCorner::kSF, 1.0, 27.0},
               {sim::ProcessCorner::kFS, 0.95, 85.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner& c) {
    core::EvalResult r;
    if (c.tempC > 100.0 && v[0] + v[1] > 1.2) return r;  // hard failure
    r.ok = true;
    const double dx = v[0] - 0.7 + 0.1 * (c.vdd - 1.0);
    const double dy = v[1] - 0.3 + 0.0005 * (c.tempC - 27.0);
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy), v[0] + v[1]};
    return r;
  };
  return p;
}

/// A backend `width` lanes wide over a scalar callback — wider than the
/// simulator's own lanes — that remembers the widest pass it ran.
class WideBackend final : public eval::EvalBackend {
 public:
  WideBackend(core::CornerEvalFn fn, std::size_t width)
      : fn_(std::move(fn)), width_(width) {}
  std::string_view name() const override { return "wide"; }
  std::size_t batchWidth() const override { return width_; }
  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners, const eval::EvalContext*,
                     core::EvalResult* results,
                     std::size_t count) const override {
    std::size_t seen = widest_.load();
    while (seen < count && !widest_.compare_exchange_weak(seen, count)) {
    }
    for (std::size_t i = 0; i < count; ++i)
      results[i] = fn_(*sizes[i], corners[i]);
  }
  std::size_t widest() const { return widest_; }

 private:
  core::CornerEvalFn fn_;
  std::size_t width_;
  mutable std::atomic<std::size_t> widest_{0};
};

/// The problem with a fused evaluator that loops over its scalar one: its
/// engine's backend becomes sim::kSimLanes wide.
core::SizingProblem fused(core::SizingProblem p) {
  p.evaluateBatch = [fn = p.evaluate](const linalg::Vector* const* sizes,
                                      const sim::PvtCorner* corners,
                                      core::EvalResult* results,
                                      std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      results[i] = fn(*sizes[i], corners[i]);
  };
  return p;
}

constexpr std::size_t kLookaheadBudget = 120;

/// Everything a run consumed, plus the lane evaluations it spent.
struct LookaheadRun {
  StrategyOutcome outcome;
  pvt::EdaLedger ledger;
  eval::EvalStats stats;
  eval::FailureRecord firstFailure;
  std::vector<eval::EvalKey> publishes;  ///< every step's drain, in order
  std::size_t memo = 0;
  std::size_t lanes = 0;   ///< lane evaluations the callback saw
  std::size_t widest = 0;  ///< widest pass (width-8 backend only)
  std::size_t steps = 0;
};

/// Each strategy's options in the lookahead harness: small models, and a
/// pvt_search whose episodes are short enough to restart within the budget.
std::map<std::string, std::string> lookaheadOptions(const std::string& name) {
  if (name == "tree_bayes_opt")
    return {{"init_samples", "6"}, {"candidate_pool", "80"}};
  if (name == "rl_policy")
    return {{"hidden", "8"}, {"n_steps", "8"}, {"episode_length", "10"}};
  if (name == "pvt_search") return {{"init_samples", "6"}, {"mc_samples", "30"}};
  return {};
}

struct LookaheadConfig {
  /// random_search, tree_bayes_opt, rl_policy or pvt_search (the last grows
  /// its progressive-hardest pool from one of the five corners).
  std::string strategy = "random_search";
  double radius = 0.2;
  std::uint64_t seed = 3;
  std::size_t width = 1;  ///< 1: scalar callback, 4: fused, 8: WideBackend
  std::size_t slice = 0;  ///< 0: one step to the budget
  bool faulty = false;    ///< ci_smoke_faulty's fault plan and retries
  /// After this many steps, checkpoint, rebuild and restore into a fresh
  /// strategy, and go on (0: never; not for tree_bayes_opt).
  std::size_t resumeAfter = 0;
  std::size_t budget = kLookaheadBudget;
};

LookaheadRun runLookahead(const LookaheadConfig& c) {
  core::SizingProblem prob = lookaheadProblem(c.radius);
  auto lanes = std::make_shared<std::atomic<std::size_t>>(0);
  prob.evaluate = [fn = prob.evaluate, lanes](const linalg::Vector& v,
                                              const sim::PvtCorner& corner) {
    ++*lanes;
    return fn(v, corner);
  };
  // rl_policy runs as many environments as the problem's own evaluator is
  // wide, so it needs the fused one to fill a wide backend too.
  if (c.width == 4 || (c.width == 8 && c.strategy == "rl_policy"))
    prob = fused(std::move(prob));
  std::shared_ptr<WideBackend> wide;
  if (c.width == 8) wide = std::make_shared<WideBackend>(prob.evaluate, 8);

  const auto build = [&]() -> std::unique_ptr<Strategy> {
    std::unique_ptr<Strategy> s = makeStrategy(
        c.strategy, prob, c.seed, c.budget, lookaheadOptions(c.strategy));
    eval::EvalEngine& engine = s->engine();
    if (wide) engine.setBackend(wide);
    engine.attachSharedCache(std::make_shared<eval::SharedEvalCache>(4),
                             "lookahead");
    if (c.faulty) {
      sim::FaultPlanConfig plan;
      plan.seed = 2021;
      plan.nonConvergenceRate = 0.30;
      plan.nonFiniteRate = 0.05;
      engine.injectFaults(std::make_shared<const sim::FaultPlan>(plan),
                          "lookahead");
      engine.setRetryPolicy(eval::RetryPolicy{/*maxAttempts=*/2});
    }
    return s;
  };

  LookaheadRun run;
  std::unique_ptr<Strategy> s = build();
  const std::size_t slice = c.slice == 0 ? c.budget : c.slice;
  for (std::size_t target = slice;; target += slice) {
    s->step(std::min(target, c.budget));
    ++run.steps;
    // Nothing speculative outlives a step.
    EXPECT_EQ(s->engine().lookaheadSize(), 0u);
    for (const eval::PublishEntry& e : s->engine().drainPublishJournal())
      run.publishes.push_back(e.key);
    if (s->finished() || target >= c.budget) break;
    if (run.steps == c.resumeAfter) {
      const std::string blob = s->saveCheckpointBlob();
      s = build();
      s->restoreCheckpointBlob(blob, "lookahead-test");
    }
  }
  run.outcome = s->outcome();
  run.ledger = s->engine().ledger();
  run.stats = s->engine().stats();
  run.firstFailure = s->engine().firstFailure();
  run.memo = s->engine().cacheSize();
  run.lanes = *lanes;
  run.widest = wide ? wide->widest() : 0;
  return run;
}

/// Every consumed-request field of two runs agrees, bit for bit.
void expectSameConsumed(const LookaheadRun& a, const LookaheadRun& b,
                        const std::string& where) {
  EXPECT_EQ(a.outcome.solved, b.outcome.solved) << where;
  EXPECT_EQ(a.outcome.iterations, b.outcome.iterations) << where;
  EXPECT_EQ(a.outcome.sizes, b.outcome.sizes) << where;
  EXPECT_EQ(a.outcome.bestValue, b.outcome.bestValue) << where;
  EXPECT_EQ(a.outcome.bestMeasurements, b.outcome.bestMeasurements) << where;
  const auto& la = a.ledger.blocks();
  const auto& lb = b.ledger.blocks();
  ASSERT_EQ(la.size(), lb.size()) << where;
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].cornerIndex, lb[i].cornerIndex) << where << " block " << i;
    EXPECT_EQ(la[i].kind, lb[i].kind) << where << " block " << i;
    EXPECT_EQ(la[i].meetsSpec, lb[i].meetsSpec) << where << " block " << i;
    EXPECT_EQ(la[i].cached, lb[i].cached) << where << " block " << i;
    EXPECT_EQ(la[i].failed, lb[i].failed) << where << " block " << i;
    EXPECT_EQ(la[i].retries, lb[i].retries) << where << " block " << i;
    EXPECT_EQ(la[i].backoff, lb[i].backoff) << where << " block " << i;
  }
  // Every EvalStats counter but attempts, which counts lanes simulated ahead.
  eval::EvalStats sa = countersOf(a.stats), sb = countersOf(b.stats);
  sa.attempts = sb.attempts = 0;
  EXPECT_EQ(sa, sb) << where;
  EXPECT_EQ(a.firstFailure.valid, b.firstFailure.valid) << where;
  EXPECT_EQ(a.firstFailure.request, b.firstFailure.request) << where;
  EXPECT_EQ(a.firstFailure.cornerIndex, b.firstFailure.cornerIndex) << where;
  EXPECT_EQ(a.firstFailure.cls, b.firstFailure.cls) << where;
  EXPECT_EQ(a.firstFailure.attempts, b.firstFailure.attempts) << where;
  EXPECT_EQ(a.publishes, b.publishes) << where;
  EXPECT_EQ(a.memo, b.memo) << where;
}

std::string describe(const LookaheadConfig& c) {
  return c.strategy + " radius " + std::to_string(c.radius) + " width " +
         std::to_string(c.width) + " slice " + std::to_string(c.slice) +
         (c.faulty ? " faulty" : " clean") +
         (c.resumeAfter != 0
              ? " resumed after step " + std::to_string(c.resumeAfter)
              : "");
}

TEST(Lookahead, StrategiesAccountExactlyAsOneRequestAtATime) {
  std::size_t wastedTotal = 0;
  // At radius 0.1 pvt_search's pool grows during its first episode's init
  // samples (one verify fails), so samples looked ahead on one corner are
  // asked for on two; it solves later, on the grown pool.
  {
    core::PvtSearchConfig cfg;
    cfg.seed = LookaheadConfig{}.seed;
    cfg.explorer.initSamples = 6;
    cfg.explorer.mcSamples = 30;
    core::PvtSearch search(lookaheadProblem(0.1), cfg);
    EXPECT_EQ(search.run(cfg.explorer.initSamples).cornersActivated, 2u);
    EXPECT_TRUE(search.run(kLookaheadBudget).solved);
  }
  for (const char* strategy :
       {"random_search", "tree_bayes_opt", "pvt_search"}) {
    // Discs wide enough to solve within the budget, and one too narrow.
    for (const double radius : {0.2, 0.1, 0.03}) {
      for (const bool faulty : {false, true}) {
        LookaheadConfig base;
        base.strategy = strategy;
        base.radius = radius;
        base.faulty = faulty;
        const LookaheadRun whole = runLookahead(base);
        for (const std::size_t slice : {std::size_t{0}, std::size_t{7}}) {
          LookaheadConfig ref = base;
          ref.slice = slice;
          const LookaheadRun one = runLookahead(ref);
          // Width 1 never looks ahead: every lane evaluation is consumed.
          EXPECT_EQ(one.stats.attempts, one.stats.simulated + one.stats.faults)
              << describe(ref);
          // Slicing changes nothing a request consumes.
          expectSameConsumed(one, whole, describe(ref) + " vs single-shot");
          for (const std::size_t width : {4u, 8u}) {
            LookaheadConfig c = ref;
            c.width = width;
            const LookaheadRun packed = runLookahead(c);
            expectSameConsumed(packed, one, describe(c));
            // attempts counts every lane evaluation; the excess over the
            // consumed ones is what was simulated ahead and dropped.
            ASSERT_GE(packed.stats.attempts,
                      packed.stats.simulated + packed.stats.faults)
                << describe(c);
            wastedTotal += packed.stats.attempts - packed.stats.simulated -
                           packed.stats.faults;
            // Faulted lanes never reach the callback, so count lanes on
            // clean runs only.
            if (!faulty) {
              EXPECT_EQ(packed.stats.attempts, packed.lanes) << describe(c);
              EXPECT_EQ(one.stats.attempts, one.lanes) << describe(ref);
              if (width == 8) {
                EXPECT_GT(packed.widest, 4u) << describe(c);
              }
            }
          }
        }
      }
    }
  }
  // The cases above do drop lanes (solves, hard failures, slice ends).
  EXPECT_GT(wastedTotal, 0u);
}

TEST(Lookahead, ClampsToWhatTheStepCanStillAsk) {
  // Without solves or hard failures every lane simulated ahead is asked
  // for: RandomSearch offers only sizings the step target lets it start,
  // TreeBayesOpt only corners the budget reaches (100 blocks end one
  // corner into a three-corner sweep), rl_policy only the environments
  // left in the tick.
  for (const std::size_t width : {4u, 8u}) {
    const auto prob = fused(syntheticProblem(0.001));  // never solves
    RandomSearch rs(prob, 5, 100);
    if (width == 8)
      rs.engine().setBackend(std::make_shared<WideBackend>(prob.evaluate, 8));
    for (std::size_t target = 7; !rs.finished(); target += 7) rs.step(target);
    const eval::EvalStats& rst = rs.outcome().evalStats;
    EXPECT_EQ(rst.requests, 100u);
    EXPECT_EQ(rst.attempts, rst.simulated) << "random_search width " << width;

    // Sizings that pass most corners make each corner miss look further
    // ahead; the lookahead stays within two passes' worth of sizings, so a
    // long single-shot run drops at most that many first corners (without
    // the bound this run drops hundreds).
    auto passing = syntheticProblem();
    passing.corners = multiCornerProblem(0.0).corners;
    passing.corners.push_back({sim::ProcessCorner::kFS, 1.0, 85.0});
    passing.evaluate = [](const linalg::Vector& v, const sim::PvtCorner& c) {
      core::EvalResult r;
      r.ok = true;
      // Corners pass with probability ~0.8 (a hash of the point and the
      // corner); the last corner never passes.
      std::uint64_t h = static_cast<std::uint64_t>(v[0] * 200.0 + 0.5) *
                            1000003ull +
                        static_cast<std::uint64_t>(v[1] * 200.0 + 0.5) *
                            7919ull +
                        static_cast<std::uint64_t>(c.tempC + 100.0);
      h = (h ^ (h >> 31)) * 0x9e3779b97f4a7c15ull;
      const bool pass = c.tempC < 80.0 && (h >> 40) % 10 < 8;
      r.measurements = {pass ? 1.0 : 0.0, 0.0};
      return r;
    };
    passing = fused(std::move(passing));
    RandomSearch far(passing, 9, 2000);
    if (width == 8)
      far.engine().setBackend(
          std::make_shared<WideBackend>(passing.evaluate, 8));
    const eval::EvalStats& fst = far.run().evalStats;
    EXPECT_EQ(fst.requests, 2000u);
    EXPECT_GT(fst.simulated, 1000u);
    EXPECT_LE(fst.attempts - fst.simulated, 2 * (width - 1))
        << "random_search single-shot width " << width;

    const auto multi = fused(multiCornerProblem(0.001));
    TreeBayesOptConfig cfg;
    cfg.seed = 4;
    cfg.candidatePool = 50;
    TreeBayesOpt bo(multi, cfg, 100);
    if (width == 8)
      bo.engine().setBackend(std::make_shared<WideBackend>(multi.evaluate, 8));
    const StrategyOutcome& out = bo.run();
    EXPECT_EQ(out.iterations, 100u);
    EXPECT_EQ(out.evalStats.attempts, out.evalStats.simulated)
        << "tree_bayes_opt width " << width;

    // pvt_search offers its episode's later init samples up to the last one,
    // and only those the run's budget can start. Its pool never grows here
    // (nothing meets spec, so nothing is verified), so every lane simulated
    // ahead is asked for: at slices of 4 every first episode straddles a
    // step end.
    for (const std::size_t slice : {std::size_t{4}, std::size_t{100}}) {
      std::unique_ptr<Strategy> pvt = makeStrategy(
          "pvt_search", multi, 4, 100, lookaheadOptions("pvt_search"));
      if (width == 8)
        pvt->engine().setBackend(
            std::make_shared<WideBackend>(multi.evaluate, 8));
      for (std::size_t target = slice; !pvt->finished(); target += slice) {
        pvt->step(target);
        EXPECT_EQ(pvt->engine().lookaheadSize(), 0u);
      }
      const StrategyOutcome& po = pvt->outcome();
      const std::string where = "pvt_search slice " + std::to_string(slice) +
                                " width " + std::to_string(width);
      EXPECT_EQ(po.iterations, 100u) << where;
      EXPECT_EQ(po.evalStats.attempts, po.evalStats.simulated) << where;
    }

    // rl_policy offers only the tick's later environments, as far as the
    // step target reaches: a run that never solves simulates no lane it
    // does not use, and one that solves wastes at most the solving tick's
    // later environments. The 101-request budget ends mid-tick.
    for (const double radius : {0.001, 0.3}) {
      const auto rlProb = fused(syntheticProblem(radius));
      rl::RlPolicyConfig rlCfg;
      rlCfg.a2c.hidden = 8;
      rlCfg.a2c.nSteps = 8;
      rlCfg.a2c.env.episodeLength = 10;
      for (const std::size_t slice : {std::size_t{7}, std::size_t{101}}) {
        rl::RlPolicyStrategy rlp(rlProb, rlCfg, 7, 101);
        if (width == 8)
          rlp.engine().setBackend(
              std::make_shared<WideBackend>(rlProb.evaluate, 8));
        for (std::size_t target = slice; !rlp.finished(); target += slice) {
          rlp.step(target);
          EXPECT_EQ(rlp.engine().lookaheadSize(), 0u);
        }
        const StrategyOutcome& ro = rlp.outcome();
        const std::size_t wasted =
            ro.evalStats.attempts - ro.evalStats.simulated;
        const std::string where = "rl_policy radius " +
                                  std::to_string(radius) + " slice " +
                                  std::to_string(slice) + " width " +
                                  std::to_string(width);
        EXPECT_EQ(ro.solved, radius > 0.1) << where;
        if (ro.solved) {
          EXPECT_LE(wasted, sim::kSimLanes - 1u) << where;
        } else {
          EXPECT_EQ(ro.iterations, 101u) << where;
          EXPECT_EQ(wasted, 0u) << where;
        }
      }
    }
  }
}

TEST(Lookahead, RandomSearchResumesFromAnyStepBoundary) {
  // A checkpoint holds no lookahead (the buffer is emptied before step()
  // returns), so a run checkpointed and restored into a fresh strategy at
  // any step boundary ends exactly where the uninterrupted run does —
  // including the lanes it simulated ahead.
  for (const std::size_t width : {4u, 8u}) {
    for (const bool faulty : {false, true}) {
      LookaheadConfig c;
      c.radius = 0.03;  // runs the whole budget: 17 step boundaries
      c.width = width;
      c.slice = 7;
      c.faulty = faulty;
      const LookaheadRun whole = runLookahead(c);
      ASSERT_EQ(whole.steps, 18u);
      for (std::size_t k = 1; k < whole.steps; ++k) {
        c.resumeAfter = k;
        const LookaheadRun resumed = runLookahead(c);
        expectSameConsumed(resumed, whole, describe(c));
        EXPECT_EQ(resumed.stats.attempts, whole.stats.attempts) << describe(c);
        EXPECT_EQ(resumed.lanes, whole.lanes) << describe(c);
      }
    }
  }
}

TEST(Lookahead, PvtSearchResumesFromAnyStepBoundary) {
  // run() empties the buffer before it returns and the budget it looks
  // ahead to is not part of the blob, so a search checkpointed at any step
  // boundary (mid-episode included) and restored into a fresh strategy ends
  // exactly where the uninterrupted run does, lanes simulated ahead included.
  for (const std::size_t width : {4u, 8u}) {
    for (const bool faulty : {false, true}) {
      LookaheadConfig c;
      c.strategy = "pvt_search";
      // Never solves: the whole budget, over 7 step boundaries or more (a
      // step on a grown pool can end past its target). The pool grows near
      // request 18, and a second episode samples on it.
      c.radius = 0.03;
      c.budget = 60;
      c.width = width;
      c.slice = 7;
      c.faulty = faulty;
      const LookaheadRun whole = runLookahead(c);
      ASSERT_FALSE(whole.outcome.solved) << describe(c);
      ASSERT_GE(whole.steps, 8u) << describe(c);
      for (std::size_t k = 1; k < whole.steps; ++k) {
        c.resumeAfter = k;
        const LookaheadRun resumed = runLookahead(c);
        expectSameConsumed(resumed, whole, describe(c));
        EXPECT_EQ(resumed.stats.attempts, whole.stats.attempts) << describe(c);
        EXPECT_EQ(resumed.lanes, whole.lanes) << describe(c);
      }
    }
  }
}

TEST(Lookahead, PvtSearchPacksInitSamplesIntoFullPasses) {
  // An episode's twelve init samples on a one-corner pool, none of which
  // meets spec: the first sample's four-lane pass also simulates the next
  // three, whose requests then take those results, so the twelve samples
  // take three passes instead of twelve.
  core::SizingProblem prob = syntheticProblem(0.001);
  auto passes = std::make_shared<std::size_t>(0);
  prob.evaluateBatch = [fn = prob.evaluate, passes](
                           const linalg::Vector* const* sizes,
                           const sim::PvtCorner* corners,
                           core::EvalResult* results, std::size_t count) {
    ++*passes;
    for (std::size_t i = 0; i < count; ++i)
      results[i] = fn(*sizes[i], corners[i]);
  };
  core::PvtSearchConfig cfg;
  cfg.explorer.initSamples = 12;
  core::PvtSearch search(prob, cfg);
  ASSERT_EQ(search.engine().backend().batchWidth(), 4u);
  const core::PvtSearchOutcome out = search.run(12);
  EXPECT_EQ(out.totalSims, 12u);
  EXPECT_EQ(out.evalStats.simulated, 12u);
  EXPECT_EQ(out.evalStats.attempts, 12u);
  EXPECT_EQ(*passes, 3u);
}

TEST(Lookahead, RlPolicyResumesFromAnyStepBoundary) {
  // rl_policy's blob is its learner's snapshot: networks, Adam moments,
  // every environment slot and the half-collected rollout, so a run
  // checkpointed at any step boundary (mid-tick and mid-rollout included)
  // and restored into a fresh strategy ends exactly where the uninterrupted
  // run does, lanes simulated ahead included.
  for (const std::size_t width : {4u, 8u}) {
    for (const bool faulty : {false, true}) {
      for (const std::size_t slice : {1u, 7u}) {
        LookaheadConfig c;
        c.strategy = "rl_policy";
        c.radius = 0.03;  // never solves: the run takes every slice
        c.width = width;
        c.slice = slice;
        c.faulty = faulty;
        const LookaheadRun whole = runLookahead(c);
        ASSERT_FALSE(whole.outcome.solved) << describe(c);
        ASSERT_EQ(whole.steps, (kLookaheadBudget + slice - 1) / slice);
        for (std::size_t k = 1; k < whole.steps; ++k) {
          c.resumeAfter = k;
          const LookaheadRun resumed = runLookahead(c);
          expectSameConsumed(resumed, whole, describe(c));
          EXPECT_EQ(resumed.stats.attempts, whole.stats.attempts)
              << describe(c);
          EXPECT_EQ(resumed.lanes, whole.lanes) << describe(c);
        }
      }
    }
  }
}

}  // namespace
}  // namespace trdse::opt
