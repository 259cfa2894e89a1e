#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "circuits/registry.hpp"
#include "core/local_dataset.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "core/surrogate.hpp"
#include "core/trust_region.hpp"
#include "core/value.hpp"

namespace trdse::core {
namespace {

// ---------- DesignSpace ----------

TEST(DesignSpace, LinearGrid) {
  DesignSpace space({{"x", 0.0, 10.0, 11, false}});
  EXPECT_DOUBLE_EQ(space.gridValue(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(space.gridValue(0, 10), 10.0);
  EXPECT_DOUBLE_EQ(space.gridValue(0, 5), 5.0);
  EXPECT_EQ(space.nearestIndex(0, 5.4), 5u);
  EXPECT_EQ(space.nearestIndex(0, 5.6), 6u);
  EXPECT_EQ(space.nearestIndex(0, -99.0), 0u);
  EXPECT_EQ(space.nearestIndex(0, 99.0), 10u);
}

TEST(DesignSpace, LogGrid) {
  DesignSpace space({{"w", 1e-6, 1e-4, 3, true}});
  EXPECT_NEAR(space.gridValue(0, 1), 1e-5, 1e-12);
  EXPECT_EQ(space.nearestIndex(0, 9e-6), 1u);
}

TEST(DesignSpace, SnapIdempotent) {
  DesignSpace space({{"x", 0.0, 1.0, 5, false}, {"w", 1e-6, 1e-3, 13, true}});
  const linalg::Vector raw = {0.61, 3.3e-5};
  const linalg::Vector s1 = space.snap(raw);
  const linalg::Vector s2 = space.snap(s1);
  EXPECT_EQ(s1, s2);
}

TEST(DesignSpace, UnitRoundTrip) {
  DesignSpace space({{"x", -2.0, 6.0, 100, false}, {"w", 1e-6, 1e-3, 100, true}});
  const linalg::Vector x = {1.0, 1e-4};
  const linalg::Vector u = space.toUnit(x);
  const linalg::Vector back = space.fromUnit(u);
  EXPECT_NEAR(back[0], x[0], 1e-9);
  EXPECT_NEAR(back[1], x[1], 1e-10);
  for (double v : u) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(DesignSpace, SizeLog10) {
  DesignSpace space({{"a", 0, 1, 10, false},
                     {"b", 0, 1, 10, false},
                     {"c", 0, 1, 100, false}});
  EXPECT_NEAR(space.sizeLog10(), 4.0, 1e-12);
}

TEST(DesignSpace, IndicesRoundTrip) {
  DesignSpace space({{"a", 0.0, 1.0, 7, false}, {"b", 1.0, 100.0, 9, true}});
  std::mt19937_64 rng(5);
  for (int i = 0; i < 20; ++i) {
    const auto x = space.randomPoint(rng);
    const auto idx = space.indicesOf(x);
    const auto back = space.fromIndices(idx);
    for (std::size_t d = 0; d < 2; ++d) EXPECT_NEAR(back[d], x[d], 1e-9);
  }
}

/// The planner's SnapTable is toUnit(fromUnitSnapped(u)), bit for bit. Every
/// log-scale axis of every registry circuit is probed on both sides of each
/// rounding tie: inside its guard (the exact path), just outside it and far
/// from it (the direct index), and at the tie's neighbouring doubles, with the
/// other coordinates drawn in and outside the unit cube. A synthetic space
/// adds one-step, degenerate and linear axes, which random points cover.
TEST(SnapTable, MatchesCompositionAtEveryRoundingTie) {
  std::vector<DesignSpace> spaces;
  const auto& registry = circuits::Registry::global();
  for (const std::string& name : registry.names())
    spaces.push_back(registry.makeProblem(name).space);
  spaces.push_back(DesignSpace({{"one_lin", 0.5, 2.0, 1, false},
                                {"one_log", 1e-6, 1e-3, 1, true},
                                {"flat_lin", 3.0, 3.0, 17, false},
                                {"flat_log", 2e-6, 2e-6, 17, true},
                                {"flat_one_log", 5e-9, 5e-9, 1, true},
                                {"unit_log", 1.0, 1.0, 9, true},
                                {"lin", -1.0, 4.0, 33, false},
                                {"log", 1e-9, 1e-6, 65, true}}));
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> d(-0.5, 1.5);
  std::size_t tieAxes = 0;
  for (const DesignSpace& space : spaces) {
    const core::SnapTable table(space);
    linalg::Vector u(space.dim());
    linalg::Vector out(space.dim());
    const auto matches = [&] {
      table.snap(space, u.data(), out.data());
      const linalg::Vector ref = space.toUnit(space.fromUnitSnapped(u));
      return std::memcmp(out.data(), ref.data(), sizeof(double) * ref.size()) == 0;
    };
    for (int k = 0; k < 5000; ++k) {
      for (double& x : u) x = d(rng);
      ASSERT_TRUE(matches()) << "draw " << k << " of a " << space.dim() << "-d space";
    }
    for (std::size_t i = 0; i < space.dim(); ++i) {
      const ParamDef& p = space.param(i);
      if (!p.logScale || p.steps < 2 || p.hi == p.lo) continue;
      const double g = table.guard(i);
      // Every log axis with a range reads its index directly away from ties.
      ASSERT_LT(g, 1e-3) << p.name;
      ++tieAxes;
      // Offsets from a tie, in grid steps.
      std::vector<double> offsets = {0.0, 0.5 * g, 0.99 * g, 1.01 * g, 2.0 * g, 0.25};
      for (double o = 1e-16; o < 1e-2; o *= 10.0) offsets.push_back(o);
      const double last = static_cast<double>(p.steps - 1);
      for (std::size_t k = 0; k + 1 < p.steps; ++k) {
        const double tie = (static_cast<double>(k) + 0.5) / last;
        for (const double o : offsets)
          for (const double sign : {-1.0, 1.0}) {
            for (double& x : u) x = d(rng);
            u[i] = tie + sign * o / last;
            ASSERT_TRUE(matches()) << p.name << " tie " << k << " offset " << sign * o;
          }
        double below = tie;
        double above = tie;
        for (int n = 0; n < 4; ++n) {
          below = std::nextafter(below, 0.0);
          above = std::nextafter(above, 1.0);
          for (const double x : {below, above}) {
            u[i] = x;
            ASSERT_TRUE(matches()) << p.name << " tie " << k << " at " << x;
          }
        }
      }
    }
    // In place, as the planner calls it.
    for (double& x : u) x = d(rng);
    const linalg::Vector ref = space.toUnit(space.fromUnitSnapped(u));
    table.snap(space, u.data(), u.data());
    EXPECT_EQ(std::memcmp(u.data(), ref.data(), sizeof(double) * u.size()), 0);
  }
  EXPECT_GT(tieAxes, 20u);
}

// ---------- SizingProblem ----------

TEST(Problem, MeasurementIndexFindsDeclaredNames) {
  SizingProblem p;
  p.measurementNames = {"gain_db", "ugbw_hz", "pm_deg"};
  EXPECT_EQ(p.measurementIndex("gain_db"), 0u);
  EXPECT_EQ(p.measurementIndex("pm_deg"), 2u);
}

TEST(Problem, MeasurementIndexThrowsNamingTheUnknownMeasurement) {
  // A typo in a spec name must fail loudly in every build type (the old
  // assert vanished in release builds).
  SizingProblem p;
  p.measurementNames = {"gain_db", "pm_deg"};
  try {
    p.measurementIndex("gain_dB");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gain_dB"), std::string::npos);  // the typo itself
    EXPECT_NE(what.find("pm_deg"), std::string::npos);   // the known names
  }
}

TEST(Value, ConstructorRejectsSpecOnUnknownMeasurement) {
  const std::vector<std::string> names = {"gain"};
  EXPECT_THROW(ValueFunction(names, {{"gian", SpecKind::kAtLeast, 50.0}}),
               std::invalid_argument);
}

// ---------- ValueFunction ----------

TEST(Value, ZeroWhenAllSatisfied) {
  const std::vector<std::string> names = {"gain", "power"};
  const std::vector<Spec> specs = {{"gain", SpecKind::kAtLeast, 50.0},
                                   {"power", SpecKind::kAtMost, 1.0}};
  const ValueFunction v(names, specs);
  EXPECT_DOUBLE_EQ(v({60.0, 0.5}), 0.0);
  EXPECT_TRUE(v.satisfied({60.0, 0.5}));
  EXPECT_TRUE(v.satisfied({50.0, 1.0}));  // boundary counts as met
}

TEST(Value, NegativeWhenViolated) {
  const std::vector<std::string> names = {"gain"};
  const ValueFunction v(names, {{"gain", SpecKind::kAtLeast, 50.0}});
  EXPECT_LT(v({40.0}), 0.0);
  EXPECT_FALSE(v.satisfied({40.0}));
  // Monotone: closer to spec is better.
  EXPECT_GT(v({45.0}), v({20.0}));
}

TEST(Value, NormalizationHandlesNegativeMeasurements) {
  // Phase noise style: more negative is better (kAtMost on a negative limit).
  const std::vector<std::string> names = {"pn"};
  const ValueFunction v(names, {{"pn", SpecKind::kAtMost, -71.0}});
  EXPECT_DOUBLE_EQ(v({-73.0}), 0.0);
  EXPECT_LT(v({-65.0}), 0.0);
  EXPECT_GT(v({-70.0}), v({-60.0}));
}

TEST(Value, BoundedByNegSpecCount) {
  const std::vector<std::string> names = {"a", "b", "c"};
  const std::vector<Spec> specs = {{"a", SpecKind::kAtLeast, 1.0},
                                   {"b", SpecKind::kAtLeast, 1.0},
                                   {"c", SpecKind::kAtLeast, 1.0}};
  const ValueFunction v(names, specs);
  EXPECT_GE(v({-1e9, -1e9, -1e9}), -3.0 - 1e-9);
}

TEST(Value, FailedEvalGetsSentinel) {
  const ValueFunction v({"a"}, {{"a", SpecKind::kAtLeast, 1.0}});
  EXPECT_DOUBLE_EQ(v.valueOf(EvalResult{}), kFailedValue);
}

TEST(Value, PlannerScorePrefersMarginWhenFeasible) {
  const ValueFunction v({"a"}, {{"a", SpecKind::kAtLeast, 1.0}});
  EXPECT_GT(v.plannerScore({2.0}), v.plannerScore({1.01}));
  // ... but never outweighs a violation.
  EXPECT_GT(v.plannerScore({1.01}), v.plannerScore({0.9}));
}

TEST(Value, WeightedSecondStage) {
  const std::vector<std::string> names = {"a", "b"};
  const std::vector<Spec> specs = {{"a", SpecKind::kAtLeast, 1.0},
                                   {"b", SpecKind::kAtLeast, 1.0}};
  const ValueFunction v(names, specs);
  const double wA = v.weighted({0.5, 2.0}, {10.0, 1.0});
  const double wB = v.weighted({0.5, 2.0}, {1.0, 1.0});
  EXPECT_LT(wA, wB);  // violation on 'a' amplified
}

// ---------- TrustRegion ----------

TEST(TrustRegion, ExpandsOnGoodRatio) {
  TrustRegionConfig cfg;
  TrustRegion tr(cfg);
  const double r0 = tr.radius();
  const auto step = tr.evaluateStep(1.0, 0.9);  // rho = 0.9 > 0.75
  EXPECT_TRUE(step.accepted);
  EXPECT_NEAR(tr.radius(), std::min(cfg.maxRadius, r0 * cfg.expandFactor), 1e-12);
}

TEST(TrustRegion, ShrinksOnPoorRatio) {
  TrustRegionConfig cfg;
  TrustRegion tr(cfg);
  const double r0 = tr.radius();
  const auto step = tr.evaluateStep(1.0, 0.05);  // rho = 0.05 < 0.25
  EXPECT_FALSE(step.accepted);
  EXPECT_NEAR(tr.radius(), r0 * cfg.shrinkFactor, 1e-12);
}

TEST(TrustRegion, MiddleRatioKeepsRadius) {
  TrustRegion tr;
  const double r0 = tr.radius();
  const auto step = tr.evaluateStep(1.0, 0.5);
  EXPECT_TRUE(step.accepted);
  EXPECT_DOUBLE_EQ(tr.radius(), r0);
}

TEST(TrustRegion, RespectsBounds) {
  TrustRegionConfig cfg;
  TrustRegion tr(cfg);
  for (int i = 0; i < 20; ++i) tr.evaluateStep(1.0, 1.0);
  EXPECT_DOUBLE_EQ(tr.radius(), cfg.maxRadius);
  for (int i = 0; i < 40; ++i) tr.evaluateStep(1.0, -1.0);
  EXPECT_DOUBLE_EQ(tr.radius(), cfg.minRadius);
}

TEST(TrustRegion, NonAdaptiveKeepsRadiusFixed) {
  TrustRegionConfig cfg;
  cfg.adaptive = false;
  cfg.initRadius = 0.1;
  TrustRegion tr(cfg);
  tr.evaluateStep(1.0, 1.0);
  tr.evaluateStep(1.0, -1.0);
  EXPECT_DOUBLE_EQ(tr.radius(), 0.1);
}

TEST(TrustRegion, TinyPredictionWithRealGainAccepts) {
  TrustRegion tr;
  const auto step = tr.evaluateStep(0.0, 0.1);
  EXPECT_TRUE(step.accepted);
}

// ---------- LocalDataset ----------

TEST(LocalDataset, SelectsWithinCut) {
  LocalDataset data;
  data.add({0.5, 0.5}, {1.0});
  data.add({0.52, 0.48}, {2.0});
  data.add({0.9, 0.9}, {3.0});
  const auto sel = data.selectLocal({0.5, 0.5}, 0.05, 1);
  EXPECT_EQ(sel.inputs.size(), 2u);
}

TEST(LocalDataset, FallsBackToNearestK) {
  LocalDataset data;
  data.add({0.1, 0.1}, {1.0});
  data.add({0.2, 0.2}, {2.0});
  data.add({0.9, 0.9}, {3.0});
  const auto sel = data.selectLocal({0.5, 0.5}, 0.01, 2);
  EXPECT_EQ(sel.inputs.size(), 2u);
  // Nearest two are the 0.2 and 0.9 points (distances 0.3 and 0.4).
  EXPECT_DOUBLE_EQ(sel.targets[0][0], 2.0);
}

// ---------- Surrogate ----------

TEST(Surrogate, LearnsQuadraticLocally) {
  SurrogateConfig cfg;
  cfg.epochsPerUpdate = 200;
  SpiceSurrogate s(2, 1, cfg, 3);
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> d(0.3, 0.7);
  std::vector<linalg::Vector> xs;
  std::vector<linalg::Vector> ys;
  for (int i = 0; i < 120; ++i) {
    const double a = d(rng);
    const double b = d(rng);
    xs.push_back({a, b});
    ys.push_back({100.0 * (a - 0.5) * (a - 0.5) + 40.0 * b});
  }
  s.setData(xs, ys);
  s.drawShuffles(rng);
  s.fit();
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    err += std::abs(s.predict(xs[i])[0] - ys[i][0]);
  }
  // Outputs span ~[12, 42]; demand a few percent accuracy.
  EXPECT_LT(err / 20.0, 1.5);
}

TEST(Surrogate, AdoptWeightsRequiresMatchingShape) {
  SpiceSurrogate a(3, 2, {}, 1);
  SpiceSurrogate b(3, 2, {}, 2);
  SpiceSurrogate c(4, 2, {}, 3);
  EXPECT_TRUE(b.adoptWeights(a.network()));
  EXPECT_EQ(b.network().getParameters(), a.network().getParameters());
  EXPECT_FALSE(c.adoptWeights(a.network()));
}

TEST(Surrogate, AutoConfigureScalesWithProblem) {
  const SurrogateConfig small = autoConfigure(2, 2);
  const SurrogateConfig large = autoConfigure(20, 8);
  EXPECT_LE(small.hiddenWidth, large.hiddenWidth);
  EXPECT_GE(small.hiddenWidth, 32u);
  EXPECT_LE(large.hiddenWidth, 128u);
}

// ---------- One-corner PvtSearch (Algorithm 1) on synthetic CSPs ----------

SizingProblem sphereCsp(double radius) {
  SizingProblem p;
  p.name = "sphere";
  p.space = DesignSpace({{"x", 0.0, 1.0, 101, false},
                         {"y", 0.0, 1.0, 101, false},
                         {"z", 0.0, 1.0, 101, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", SpecKind::kAtLeast, 1.0 - radius}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner&) {
    EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.62;
    const double dy = v[1] - 0.34;
    const double dz = v[2] - 0.58;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy + dz * dz)};
    return r;
  };
  return p;
}

PvtSearchConfig seeded(std::uint64_t seed) {
  PvtSearchConfig cfg;
  cfg.seed = seed;
  return cfg;
}

TEST(PvtSearchOneCorner, SolvesSphereCsp) {
  const auto prob = sphereCsp(0.05);
  const auto out = PvtSearch(prob, seeded(9)).run(3000);
  EXPECT_TRUE(out.solved);
  EXPECT_LT(out.totalSims, 1500u);
  // Iteration accounting: one ledger block per simulation used.
  EXPECT_EQ(out.ledger.totalBlocks(), out.totalSims);
}

TEST(PvtSearchOneCorner, RespectsBudget) {
  const auto prob = sphereCsp(-0.01);  // limit 1.01 > max measurement: unsolvable
  const auto out = PvtSearch(prob, seeded(11)).run(200);
  EXPECT_FALSE(out.solved);
  EXPECT_EQ(out.totalSims, 200u);
}

/// An unsolved search still reports its best point: the highest Value seen,
/// on the grid, with that point's measurements — and a search paused at step
/// k and restored from a checkpoint reports the same one, bit for bit.
TEST(PvtSearchOneCorner, ReportsBestPointWhenUnsolved) {
  const auto prob = sphereCsp(-0.01);
  const ValueFunction value(prob.measurementNames, prob.specs);
  const auto full = PvtSearch(prob, seeded(11)).run(200);
  ASSERT_FALSE(full.solved);
  EXPECT_GT(full.bestValue, kFailedValue);
  ASSERT_EQ(full.sizes.size(), prob.space.dim());
  EXPECT_EQ(prob.space.snap(full.sizes), full.sizes);
  ASSERT_TRUE(full.bestEval.ok);
  EXPECT_EQ(value.valueOf(full.bestEval), full.bestValue);
  EXPECT_EQ(full.bestEval.measurements,
            prob.evaluate(full.sizes, prob.corners[0]).measurements);

  for (const std::size_t k : {std::size_t{5}, std::size_t{97}}) {
    PvtSearch first(prob, seeded(11));
    const auto partial = first.run(k);
    ASSERT_GT(partial.bestValue, kFailedValue);
    PvtSearch resumed(prob, seeded(11));
    resumed.restore(first.save(), "mem");
    const auto restored = resumed.run(k);  // no further step: as saved
    EXPECT_EQ(restored.sizes, partial.sizes) << "k=" << k;
    EXPECT_EQ(restored.bestValue, partial.bestValue) << "k=" << k;
    EXPECT_EQ(restored.bestEval.measurements, partial.bestEval.measurements)
        << "k=" << k;
    const auto out = resumed.run(200);
    EXPECT_EQ(out.totalSims, full.totalSims) << "k=" << k;
    EXPECT_EQ(out.sizes, full.sizes) << "k=" << k;
    EXPECT_EQ(out.bestValue, full.bestValue) << "k=" << k;
    EXPECT_EQ(out.bestEval.measurements, full.bestEval.measurements)
        << "k=" << k;
  }
}

TEST(PvtSearchOneCorner, StartingPointShortensSearch) {
  const auto prob = sphereCsp(0.04);
  double coldSum = 0.0;
  double warmSum = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    PvtSearchConfig cold = seeded(seed);
    coldSum += static_cast<double>(PvtSearch(prob, cold).run(3000).totalSims);

    PvtSearchConfig warm = seeded(seed);  // starts near the optimum
    warm.explorer.startingPoint = linalg::Vector{0.60, 0.36, 0.56};
    warmSum += static_cast<double>(PvtSearch(prob, warm).run(3000).totalSims);
  }
  EXPECT_LT(warmSum, coldSum);
}

/// The starting point is the first point simulated — snapped onto the grid,
/// like every other sample — and it draws no rng: the search then goes on
/// exactly as a cold one would after its first sample.
TEST(PvtSearchOneCorner, FirstSimulatedPointIsSnappedStartingPoint) {
  auto prob = sphereCsp(0.05);
  auto seen = std::make_shared<std::vector<linalg::Vector>>();
  const auto inner = prob.evaluate;
  prob.evaluate = [seen, inner](const linalg::Vector& v,
                                const sim::PvtCorner& c) {
    seen->push_back(v);
    return inner(v, c);
  };
  const linalg::Vector start = {0.123, 0.456, 0.789};  // off the 0.01 grid
  PvtSearchConfig warm = seeded(5);
  warm.cacheEvals = false;  // record every request
  warm.explorer.startingPoint = start;
  (void)PvtSearch(prob, warm).run(3);
  ASSERT_EQ(seen->size(), 3u);
  EXPECT_EQ((*seen)[0], prob.space.snap(start));

  const std::vector<linalg::Vector> warmSeen = *seen;
  seen->clear();
  PvtSearchConfig cold = seeded(5);
  cold.cacheEvals = false;
  (void)PvtSearch(prob, cold).run(2);
  ASSERT_EQ(seen->size(), 2u);
  EXPECT_EQ(warmSeen[1], (*seen)[0]);
  EXPECT_EQ(warmSeen[2], (*seen)[1]);
}

TEST(PvtSearchOneCorner, HandlesFailingRegions) {
  auto prob = sphereCsp(0.05);
  auto inner = prob.evaluate;
  prob.evaluate = [inner](const linalg::Vector& v, const sim::PvtCorner& c) {
    if (v[0] > 0.8) return EvalResult{};  // simulator dies out here
    return inner(v, c);
  };
  const auto out = PvtSearch(prob, seeded(13)).run(3000);
  EXPECT_TRUE(out.solved);
}

// ---------- PvtSearch on a synthetic multi-corner CSP ----------

/// Corner difficulty grows with temperature: the feasible set shrinks.
SizingProblem multiCornerCsp() {
  SizingProblem p;
  p.name = "multi";
  p.space = DesignSpace({{"x", 0.0, 1.0, 101, false},
                         {"y", 0.0, 1.0, 101, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", SpecKind::kAtLeast, 0.9}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
               {sim::ProcessCorner::kSS, 1.0, 125.0},
               {sim::ProcessCorner::kFF, 1.0, -40.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner& c) {
    EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.4;
    const double dy = v[1] - 0.6;
    const double penalty = c.tempC > 100.0 ? 0.02 : 0.0;  // hot corner harder
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy) - penalty};
    return r;
  };
  return p;
}

class PvtStrategyTest : public ::testing::TestWithParam<PvtStrategy> {};

TEST_P(PvtStrategyTest, SolvesMultiCornerCsp) {
  const auto prob = multiCornerCsp();
  PvtSearchConfig cfg;
  cfg.strategy = GetParam();
  cfg.seed = 21;
  cfg.explorer = autoSchedule(prob);
  PvtSearch search(prob, cfg);
  const auto out = search.run(6000);
  EXPECT_TRUE(out.solved);
  // Final evals cover every corner and all pass.
  ASSERT_EQ(out.cornerEvals.size(), prob.corners.size());
  const ValueFunction value(prob.measurementNames, prob.specs);
  for (const auto& e : out.cornerEvals) {
    ASSERT_TRUE(e.ok);
    EXPECT_TRUE(value.satisfied(e.measurements));
  }
  // Ledger accounting is exact.
  EXPECT_EQ(out.ledger.totalBlocks(), out.totalSims);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PvtStrategyTest,
                         ::testing::Values(PvtStrategy::kBruteForce,
                                           PvtStrategy::kProgressiveRandom,
                                           PvtStrategy::kProgressiveHardest));

TEST(PvtSearch, BruteForceActivatesAllCornersUpFront) {
  const auto prob = multiCornerCsp();
  PvtSearchConfig cfg;
  cfg.strategy = PvtStrategy::kBruteForce;
  cfg.seed = 23;
  cfg.explorer = autoSchedule(prob);
  PvtSearch search(prob, cfg);
  const auto out = search.run(4000);
  EXPECT_EQ(out.cornersActivated, prob.corners.size());
  EXPECT_EQ(out.ledger.verifyBlocks(), 0u);  // nothing left to verify
}

/// Weight sharing: every corner surrogate starts from the donor's network
/// when it is built (after one sample, before any training step), and the
/// surrogate(corner) accessor exposes it for the next porting donor.
TEST(PvtSearch, WarmStartWeightsSeedEveryBuiltSurrogate) {
  const auto prob = multiCornerCsp();
  PvtSearchConfig cfg;
  cfg.strategy = PvtStrategy::kBruteForce;  // all three corners get one
  cfg.seed = 23;
  const SpiceSurrogate donor(prob.space.dim(), prob.measurementNames.size(),
                             cfg.explorer.surrogate, /*seed=*/77);
  cfg.explorer.warmStartWeights = &donor.network();
  PvtSearch search(prob, cfg);
  for (std::size_t c = 0; c < prob.corners.size(); ++c)
    EXPECT_EQ(search.surrogate(c), nullptr);
  (void)search.run(1);
  for (std::size_t c = 0; c < prob.corners.size(); ++c) {
    ASSERT_NE(search.surrogate(c), nullptr) << "corner " << c;
    EXPECT_EQ(search.surrogate(c)->network().getParameters(),
              donor.network().getParameters())
        << "corner " << c;
  }
}

TEST(PvtSearch, ProgressiveUsesFewerBlocksThanBruteForce) {
  const auto prob = multiCornerCsp();
  double brute = 0.0;
  double prog = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    PvtSearchConfig cfg;
    cfg.seed = seed;
    cfg.explorer = autoSchedule(prob);
    cfg.strategy = PvtStrategy::kBruteForce;
    brute += static_cast<double>(PvtSearch(prob, cfg).run(6000).totalSims);
    cfg.strategy = PvtStrategy::kProgressiveHardest;
    prog += static_cast<double>(PvtSearch(prob, cfg).run(6000).totalSims);
  }
  EXPECT_LT(prog, brute);
}

// ---------- Session API ----------

TEST(SizingSession, RunsEndToEnd) {
  SessionOptions options;
  options.maxSimulations = 4000;
  options.seed = 3;
  SizingSession session(multiCornerCsp(), options);
  const auto report = session.run();
  EXPECT_TRUE(report.solved);
  EXPECT_GT(report.simulations, 0u);
  EXPECT_NE(report.summary.find("solved: yes"), std::string::npos);
}

/// SessionOptions::cacheEvals is the search's one caching flag: the summary
/// states it, and with it off every logical block is a real simulation.
TEST(SizingSession, SummaryStatesTheCacheFlag) {
  for (const bool cache : {true, false}) {
    SessionOptions options;
    options.maxSimulations = 300;
    options.seed = 3;
    options.cacheEvals = cache;
    const auto report = SizingSession(multiCornerCsp(), options).run();
    EXPECT_NE(report.summary.find(cache ? "cache on" : "cache off"),
              std::string::npos);
    if (!cache) {
      EXPECT_EQ(report.evalStats.cacheHits, 0u);
      EXPECT_EQ(report.evalStats.simulated, report.simulations);
    }
  }
}

TEST(SizingSession, AutoScheduleScalesWithDimension) {
  const auto small = autoSchedule(sphereCsp(0.1));
  auto bigProblem = sphereCsp(0.1);
  std::vector<ParamDef> params;
  for (int i = 0; i < 20; ++i)
    params.push_back({"p" + std::to_string(i), 0.0, 1.0, 32, false});
  bigProblem.space = DesignSpace(params);
  const auto large = autoSchedule(bigProblem);
  EXPECT_GT(large.mcSamples, small.mcSamples);
  EXPECT_GE(large.initSamples, small.initSamples);
}

}  // namespace
}  // namespace trdse::core
