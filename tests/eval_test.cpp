// Tests for the unified evaluation engine (src/eval) and the circuit
// registry: memoization correctness, in-batch dedup, deterministic
// accounting, bitwise cache-on/off and thread-count invariance of seeded
// searches, and declarative scenario construction for all four circuits.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <stdexcept>

#include "circuits/ico.hpp"
#include "circuits/ldo.hpp"
#include "circuits/registry.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "eval/eval_cache.hpp"
#include "eval/eval_engine.hpp"
#include "rl/sizing_env.hpp"
#include "sim/sim_profile.hpp"

namespace trdse {
namespace {

using linalg::Vector;

/// Cheap closed-form multi-corner CSP; counts real evaluate() calls so tests
/// can distinguish logical requests from backend invocations.
core::SizingProblem countingProblem(std::shared_ptr<std::atomic<int>> calls) {
  core::SizingProblem p;
  p.name = "counting";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 41, false},
                               {"y", 0.0, 1.0, 41, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.9}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
               {sim::ProcessCorner::kSS, 1.0, 125.0},
               {sim::ProcessCorner::kFF, 1.0, -40.0}};
  p.evaluate = [calls](const Vector& v, const sim::PvtCorner& c) {
    ++*calls;
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

// ---------- EvalCache ----------

TEST(EvalCache, KeyedOnIndicesAndCorner) {
  eval::EvalCache cache;
  core::EvalResult r;
  r.ok = true;
  r.measurements = {1.0};
  cache.insert({{3, 7}, 0}, r);
  EXPECT_NE(cache.find({{3, 7}, 0}), nullptr);
  EXPECT_EQ(cache.find({{3, 7}, 1}), nullptr);  // other corner
  EXPECT_EQ(cache.find({{3, 8}, 0}), nullptr);  // other point
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find({{3, 7}, 0})->measurements, r.measurements);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// ---------- EvalEngine ----------

TEST(EvalEngine, MemoizesAcrossBatchesAndCountsBlocks) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto prob = countingProblem(calls);
  eval::EvalEngine engine(prob, {/*cacheEvals=*/true, /*threads=*/1});

  const Vector point = prob.space.snap({0.41, 0.59});
  const std::vector<std::size_t> corners{0, 1, 2};
  const auto first = engine.evalBatch(corners, point, pvt::BlockKind::kSearch);
  EXPECT_EQ(calls->load(), 3);

  // Same snapped point, same corners: everything served from the memo.
  const auto second = engine.evalBatch(corners, point, pvt::BlockKind::kVerify);
  EXPECT_EQ(calls->load(), 3);
  ASSERT_EQ(second.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(second[i].ok, first[i].ok);
    EXPECT_EQ(second[i].measurements, first[i].measurements);  // bitwise
  }

  // A different raw value snapping to the same grid point also hits.
  const Vector nearby{0.412, 0.588};
  engine.evalBatch({0}, prob.space.snap(nearby), pvt::BlockKind::kSearch);
  EXPECT_EQ(calls->load(), 3);

  const eval::EvalStats& s = engine.stats();
  EXPECT_EQ(s.requests, 7u);
  EXPECT_EQ(s.simulated, 3u);
  EXPECT_EQ(s.cacheHits, 4u);
  EXPECT_EQ(s.blocksSaved(), 4u);
  EXPECT_EQ(engine.cacheSize(), 3u);

  // Ledger: one block per logical request, hits flagged cached.
  EXPECT_EQ(engine.ledger().totalBlocks(), 7u);
  EXPECT_EQ(engine.ledger().cachedBlocks(), 4u);
  EXPECT_EQ(engine.ledger().simulatedBlocks(), 3u);
}

TEST(EvalEngine, DedupsDuplicateRequestsWithinABatch) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto prob = countingProblem(calls);
  const Vector point = prob.space.snap({0.5, 0.5});

  {  // cache on: the duplicate corner simulates once.
    eval::EvalEngine engine(prob, {true, 1});
    const auto r = engine.evalBatch({1, 1, 2}, point, pvt::BlockKind::kSearch);
    EXPECT_EQ(calls->load(), 2);
    EXPECT_EQ(r[0].measurements, r[1].measurements);
    EXPECT_EQ(engine.stats().requests, 3u);
    EXPECT_EQ(engine.stats().simulated, 2u);
    EXPECT_EQ(engine.stats().cacheHits, 1u);
  }
  {  // cache off: every request is a real block.
    calls->store(0);
    eval::EvalEngine engine(prob, {false, 1});
    engine.evalBatch({1, 1, 2}, point, pvt::BlockKind::kSearch);
    EXPECT_EQ(calls->load(), 3);
    EXPECT_EQ(engine.stats().cacheHits, 0u);
    EXPECT_EQ(engine.stats().simulated, 3u);
  }
}

TEST(EvalEngine, SnapsRawSizesSoSimulatedPointMatchesTheKey) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto prob = countingProblem(calls);
  linalg::Vector lastSeen;
  auto inner = prob.evaluate;
  prob.evaluate = [&lastSeen, inner](const Vector& v, const sim::PvtCorner& c) {
    lastSeen = v;
    return inner(v, c);
  };
  eval::EvalEngine engine(prob, {true, 1});
  // Raw, off-grid request: the backend must see the snapped point...
  const Vector raw{0.412, 0.588};
  const Vector snapped = prob.space.snap(raw);
  const auto r1 = engine.evalOne(0, raw, pvt::BlockKind::kSearch);
  EXPECT_EQ(lastSeen, snapped);
  // ...and a different raw value snapping to the same grid point is a hit
  // with the identical (snapped-point) result.
  const auto r2 = engine.evalOne(0, {0.408, 0.592}, pvt::BlockKind::kSearch);
  EXPECT_EQ(engine.stats().simulated, 1u);
  EXPECT_EQ(engine.stats().cacheHits, 1u);
  EXPECT_EQ(r2.measurements, r1.measurements);
}

TEST(EvalEngine, ResetAccountingKeepsTheMemo) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto prob = countingProblem(calls);
  eval::EvalEngine engine(prob, {true, 1});
  const Vector point = prob.space.snap({0.3, 0.3});
  engine.evalBatch({0, 1, 2}, point, pvt::BlockKind::kSearch);
  engine.resetAccounting();
  EXPECT_EQ(engine.stats().requests, 0u);
  EXPECT_EQ(engine.ledger().totalBlocks(), 0u);
  engine.evalBatch({0}, point, pvt::BlockKind::kSearch);
  EXPECT_EQ(calls->load(), 3);  // still served from the memo
  EXPECT_EQ(engine.stats().cacheHits, 1u);
}

TEST(EvalEngine, ThreadCountDoesNotChangeResultsOrAccounting) {
  std::vector<std::vector<core::EvalResult>> results;
  std::vector<std::size_t> simulated;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto calls = std::make_shared<std::atomic<int>>(0);
    const auto prob = countingProblem(calls);
    eval::EvalEngine engine(prob, {true, threads});
    std::mt19937_64 rng(7);
    std::vector<core::EvalResult> all;
    for (int k = 0; k < 20; ++k) {
      const Vector p = prob.space.randomPoint(rng);
      auto r = engine.evalBatch({0, 1, 2}, prob.space.snap(p),
                                pvt::BlockKind::kSearch);
      all.insert(all.end(), r.begin(), r.end());
    }
    results.push_back(std::move(all));
    simulated.push_back(engine.stats().simulated);
  }
  EXPECT_EQ(simulated[0], simulated[1]);
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i)
    EXPECT_EQ(results[0][i].measurements, results[1][i].measurements);
}

// ---------- cache-on/off bitwise invariance of seeded searches ----------

void expectSamePvtOutcome(const core::PvtSearchOutcome& a,
                          const core::PvtSearchOutcome& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.totalSims, b.totalSims);
  EXPECT_EQ(a.cornersActivated, b.cornersActivated);
  EXPECT_EQ(a.sizes, b.sizes);
  ASSERT_EQ(a.cornerEvals.size(), b.cornerEvals.size());
  for (std::size_t i = 0; i < a.cornerEvals.size(); ++i) {
    EXPECT_EQ(a.cornerEvals[i].ok, b.cornerEvals[i].ok);
    EXPECT_EQ(a.cornerEvals[i].measurements, b.cornerEvals[i].measurements);
  }
  // The logical (corner, kind, meetsSpec) block sequence is part of the
  // trajectory; only the cached flags may differ.
  ASSERT_EQ(a.ledger.totalBlocks(), b.ledger.totalBlocks());
  for (std::size_t i = 0; i < a.ledger.blocks().size(); ++i) {
    EXPECT_EQ(a.ledger.blocks()[i].cornerIndex, b.ledger.blocks()[i].cornerIndex);
    EXPECT_EQ(a.ledger.blocks()[i].kind, b.ledger.blocks()[i].kind);
    EXPECT_EQ(a.ledger.blocks()[i].meetsSpec, b.ledger.blocks()[i].meetsSpec);
  }
}

TEST(EvalEngineSearch, PvtSearchBitwiseIdenticalWithCacheOnOrOff) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto prob = countingProblem(calls);
  core::PvtSearchOutcome outcomes[2];
  for (int cached = 0; cached < 2; ++cached) {
    core::PvtSearchConfig cfg;
    cfg.seed = 21;
    cfg.cacheEvals = cached == 1;
    cfg.explorer = core::autoSchedule(prob);
    core::PvtSearch search(prob, cfg);
    outcomes[cached] = search.run(6000);
  }
  expectSamePvtOutcome(outcomes[1], outcomes[0]);
  // Uncached: every logical block simulated; no hits.
  EXPECT_EQ(outcomes[0].evalStats.cacheHits, 0u);
  EXPECT_EQ(outcomes[0].evalStats.simulated, outcomes[0].totalSims);
  // Cached accounting is self-consistent either way.
  EXPECT_EQ(outcomes[1].evalStats.simulated + outcomes[1].evalStats.cacheHits,
            outcomes[1].totalSims);
}

TEST(EvalEngineSearch, PvtSearchThreadCountInvariantWithCacheOn) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto prob = countingProblem(calls);
  core::PvtSearchOutcome outcomes[2];
  int t = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::PvtSearchConfig cfg;
    cfg.strategy = core::PvtStrategy::kBruteForce;  // 3 active: real fan-out
    cfg.seed = 33;
    cfg.cacheEvals = true;
    cfg.evalThreads = threads;
    cfg.explorer = core::autoSchedule(prob);
    core::PvtSearch search(prob, cfg);
    outcomes[t++] = search.run(5000);
  }
  expectSamePvtOutcome(outcomes[1], outcomes[0]);
  EXPECT_EQ(outcomes[1].evalStats.cacheHits, outcomes[0].evalStats.cacheHits);
  EXPECT_EQ(outcomes[1].evalStats.simulated, outcomes[0].evalStats.simulated);
}

TEST(EvalEngineSearch, SizingEnvBitwiseIdenticalWithCacheOnOrOff) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto prob = countingProblem(calls);
  // Drive both envs through the same random action sequence.
  std::vector<std::vector<std::size_t>> actionLog;
  {
    std::mt19937_64 arng(5);
    std::uniform_int_distribution<std::size_t> act(0, 2);
    for (int s = 0; s < 120; ++s) {
      std::vector<std::size_t> a(prob.space.dim());
      for (auto& v : a) v = act(arng);
      actionLog.push_back(std::move(a));
    }
  }
  std::vector<double> rewards[2];
  std::vector<Vector> observations[2];
  std::size_t realSims[2] = {0, 0};
  for (int cached = 0; cached < 2; ++cached) {
    rl::EnvConfig cfg;
    cfg.cacheEvals = cached == 1;
    rl::SizingEnv env(prob, cfg, 11);
    observations[cached].push_back(env.reset());
    for (const auto& a : actionLog) {
      auto sr = env.step(a);
      rewards[cached].push_back(sr.reward);
      observations[cached].push_back(std::move(sr.observation));
      if (sr.done) observations[cached].push_back(env.reset());
    }
    EXPECT_EQ(env.simulationsUsed(), env.evalStats().requests);
    realSims[cached] = env.evalStats().simulated;
  }
  EXPECT_EQ(rewards[1], rewards[0]);
  ASSERT_EQ(observations[1].size(), observations[0].size());
  for (std::size_t i = 0; i < observations[0].size(); ++i)
    EXPECT_EQ(observations[1][i], observations[0][i]);
  // The stride lattice forces revisits: caching must actually save work.
  EXPECT_LT(realSims[1], realSims[0]);
}

// ---------- registry ----------

TEST(Registry, ExposesTheFourPaperCircuits) {
  const auto& reg = circuits::Registry::global();
  for (const char* name :
       {"two_stage_opamp", "folded_cascode", "ldo", "ico"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("colpitts"));
  EXPECT_THROW(reg.at("colpitts"), std::invalid_argument);
  EXPECT_THROW(reg.makeProblem("two_stage_opamp", {}, "tsmc3"),
               std::invalid_argument);
}

TEST(Registry, RoundTripInstantiatesAndEvaluatesEveryCircuit) {
  const auto& reg = circuits::Registry::global();
  for (const std::string& name : reg.names()) {
    SCOPED_TRACE(name);
    const core::SizingProblem prob = reg.makeProblem(name);
    EXPECT_GT(prob.space.dim(), 0u);
    EXPECT_FALSE(prob.measurementNames.empty());
    EXPECT_FALSE(prob.specs.empty());
    ASSERT_EQ(prob.corners.size(), 1u);  // default: single TT corner
    ASSERT_TRUE(static_cast<bool>(prob.evaluate));

    // Evaluate a handful of grid points through an engine; at least one must
    // converge, and a repeated request must hit the memo with a bitwise-
    // identical result.
    eval::EvalEngine engine(prob, {true, 1});
    std::mt19937_64 rng(3);
    int okCount = 0;
    for (int k = 0; k < 40 && okCount == 0; ++k) {
      const Vector x = prob.space.randomPoint(rng);
      const auto r = engine.evalOne(0, x, pvt::BlockKind::kSearch);
      if (!r.ok) continue;
      ++okCount;
      EXPECT_EQ(r.measurements.size(), prob.measurementNames.size());
      const std::size_t simsBefore = engine.stats().simulated;
      const auto again = engine.evalOne(0, x, pvt::BlockKind::kSearch);
      EXPECT_EQ(engine.stats().simulated, simsBefore);  // served from memo
      EXPECT_EQ(again.measurements, r.measurements);
    }
    EXPECT_GE(okCount, 1);
  }
}

TEST(Registry, ProcessOverrideSelectsTheCard) {
  const auto p22 = circuits::Registry::global().makeProblem("two_stage_opamp",
                                                            {}, "bsim22");
  EXPECT_NE(p22.name.find("bsim22"), std::string::npos);
  EXPECT_EQ(p22.corners.front().vdd, sim::bsim22Card().nominalVdd);
}

TEST(Registry, RejectsDuplicateEntries) {
  circuits::Registry reg;
  reg.add({"a", "bsim45", "", nullptr});
  EXPECT_THROW(reg.add({"a", "bsim22", "", nullptr}), std::invalid_argument);
}

TEST(Registry, CircuitEvaluatesThroughTheEngine) {
  const core::SizingProblem prob =
      circuits::Registry::global().makeProblem("ico");
  eval::EvalEngine engine(prob, {true, 1});
  EXPECT_EQ(engine.backend().name(), "problem:ico_n5");
  // Registry problems ship the fused corner-batch evaluator.
  EXPECT_EQ(engine.backend().batchWidth(),
            static_cast<std::size_t>(sim::kSimLanes));
  const Vector human = circuits::Ico::humanReferenceSizing();
  const auto r = engine.evalOne(0, prob.space.snap(human),
                                pvt::BlockKind::kSearch);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.measurements[circuits::Ico::kFreqGhz], 4.0);
  // Second evaluation of the snapped human point: zero additional blocks.
  engine.evalOne(0, prob.space.snap(human), pvt::BlockKind::kVerify);
  EXPECT_EQ(engine.stats().simulated, 1u);
  EXPECT_EQ(engine.stats().cacheHits, 1u);
}

// ---------- CallbackBackend ----------

TEST(CallbackBackend, EveryChunkRunsFusedAndNoFusedMeansScalarPerSlot) {
  std::size_t scalarCalls = 0;
  std::vector<std::size_t> fusedCounts;
  const auto model = [](const Vector& v, const sim::PvtCorner& c) {
    core::EvalResult r;
    r.ok = true;
    r.measurements = {v[0] + c.tempC};
    return r;
  };
  const core::CornerEvalFn scalar = [&](const Vector& v,
                                        const sim::PvtCorner& c) {
    ++scalarCalls;
    return model(v, c);
  };
  const eval::CallbackBackend backend(
      scalar, "probe",
      [&](const Vector* const* sizes, const sim::PvtCorner* corners,
          core::EvalResult* results, std::size_t count) {
        fusedCounts.push_back(count);
        for (std::size_t i = 0; i < count; ++i)
          results[i] = model(*sizes[i], corners[i]);
      });
  EXPECT_EQ(backend.batchWidth(), static_cast<std::size_t>(sim::kSimLanes));

  const Vector x = {0.25};
  const std::vector<const Vector*> sizes(3, &x);
  const std::vector<sim::PvtCorner> corners = {
      {sim::ProcessCorner::kTT, 1.0, 27.0},
      {sim::ProcessCorner::kSS, 1.0, 125.0},
      {sim::ProcessCorner::kFF, 1.0, -40.0}};
  const std::vector<eval::EvalContext> contexts(3);
  std::vector<core::EvalResult> out(3);
  const auto expectModel = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(out[i].measurements, model(x, corners[i]).measurements);
  };

  // A one-slot chunk is a one-lane fused pass like any other chunk.
  backend.evaluateBatch(sizes.data(), corners.data(), contexts.data(),
                        out.data(), 1);
  EXPECT_EQ(scalarCalls, 0u);
  EXPECT_EQ(fusedCounts, std::vector<std::size_t>{1});
  expectModel(1);

  backend.evaluateBatch(sizes.data(), corners.data(), contexts.data(),
                        out.data(), 3);
  EXPECT_EQ(scalarCalls, 0u);
  EXPECT_EQ(fusedCounts, (std::vector<std::size_t>{1, 3}));
  expectModel(3);

  // Without a fused callback the backend is width 1 and every slot runs
  // the scalar callback.
  const eval::CallbackBackend scalarOnly(scalar, "scalar");
  EXPECT_EQ(scalarOnly.batchWidth(), 1u);
  scalarOnly.evaluateBatch(sizes.data(), corners.data(), contexts.data(),
                           out.data(), 3);
  EXPECT_EQ(scalarCalls, 3u);
  expectModel(3);
}

// ---------- Simulator phase counters ----------

TEST(EvalStats, SimPhaseCountersCoverOnePointRequests) {
  // A lone evalOne is a one-lane pass of the lane engine, which times every
  // simulator phase. With profiling on, one request on each registry circuit
  // must move all four phase counters of its engine.
  struct ProfilingOn {
    bool was = sim::simProfilingEnabled();
    ProfilingOn() { sim::setSimProfiling(true); }
    ~ProfilingOn() { sim::setSimProfiling(was); }
  } profiling;
  const auto phaseNs = [](const eval::EvalStats& st) {
    return st.simDeviceEvalNs + st.simStampNs + st.simFactorNs +
           st.simSolveNs;
  };
  const auto& reg = circuits::Registry::global();
  // Built before the loop and dispatched after it: an engine's counters
  // cover its own dispatches only, not other engines' work in between.
  const core::SizingProblem opamp = reg.makeProblem("two_stage_opamp");
  eval::EvalEngine late(opamp, {/*cacheEvals=*/false, 1});
  std::uint64_t loopNs = 0;
  for (const auto& name : reg.names()) {
    const core::SizingProblem prob = reg.makeProblem(name);
    eval::EvalEngine engine(prob, {/*cacheEvals=*/false, 1});
    std::mt19937_64 rng(17);
    engine.evalOne(0, prob.space.randomPoint(rng), pvt::BlockKind::kSearch);
    const eval::EvalStats& st = engine.stats();
    EXPECT_EQ(st.simulated + st.failures, 1u) << name;
    EXPECT_GT(st.simDeviceEvalNs, 0u) << name;
    EXPECT_GT(st.simStampNs, 0u) << name;
    EXPECT_GT(st.simFactorNs, 0u) << name;
    EXPECT_GT(st.simSolveNs, 0u) << name;
    loopNs += phaseNs(st);
  }
  // One opamp point against the loop's four circuits, an ICO transient
  // among them.
  std::mt19937_64 rng(17);
  late.evalOne(0, opamp.space.randomPoint(rng), pvt::BlockKind::kSearch);
  EXPECT_GT(phaseNs(late.stats()), 0u);
  EXPECT_LT(phaseNs(late.stats()), loopNs);
}

}  // namespace
}  // namespace trdse
