#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "opt/extra_trees.hpp"
#include "opt/random_search.hpp"
#include "opt/strategy.hpp"
#include "opt/tree_bayes_opt.hpp"

namespace trdse::opt {
namespace {

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

TEST(RandomSearch, SolvesEasyProblem) {
  const auto prob = syntheticProblem(0.4);  // large feasible disc
  RandomSearch rs(prob, 3);
  const auto out = rs.run(2000);
  EXPECT_TRUE(out.solved);
  EXPECT_LT(out.iterations, 2000u);
}

TEST(RandomSearch, RespectsBudgetOnHardProblem) {
  const auto prob = syntheticProblem(0.01);  // tiny disc
  RandomSearch rs(prob, 3);
  const auto out = rs.run(300);
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
  RandomSearch rs(prob, 5);
  const auto out = rs.run(100);
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
    TreeBayesOpt bo(prob, cfg);
    const auto b = bo.run(2000);
    EXPECT_TRUE(b.solved);
    boIters.push_back(static_cast<double>(b.iterations));
    RandomSearch rs(prob, 200 + r);
    const auto s = rs.run(2000);
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
  TreeBayesOpt bo(prob, cfg);
  const auto out = bo.run(150);
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
  TreeBayesOpt bo(prob, cfg);
  const auto out = bo.run(1500);
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

  ExtraTreesRegressor model;
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
  };
  const Case cases[] = {{0.08, 100, 2000, false},  // solves
                        {0.005, 31, 150, false},   // exhausts the budget
                        {0.3, 21, 400, true}};     // multi-corner sweeps
  for (const Case& c : cases) {
    const auto prob =
        c.multiCorner ? multiCornerProblem(c.radius) : syntheticProblem(c.radius);
    TreeBayesOptConfig cfg;
    cfg.seed = c.seed;
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

}  // namespace
}  // namespace trdse::opt
