// Tests for the unified evaluation engine (src/eval) and the circuit
// registry: memoization correctness, in-batch dedup, deterministic
// accounting, bitwise cache-on/off and thread-count invariance of seeded
// searches, and declarative scenario construction for all four circuits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <random>
#include <stdexcept>

#include "circuits/ico.hpp"
#include "circuits/ldo.hpp"
#include "circuits/registry.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "eval/eval_cache.hpp"
#include "eval/eval_engine.hpp"
#include "eval_stats_eq.hpp"
#include "io/checkpoint.hpp"
#include "pool_task.hpp"
#include "pvt/corners.hpp"
#include "rl/sizing_env.hpp"

namespace trdse {
namespace {

using linalg::Vector;
using testing_stats::countersOf;

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
  eval::EvalEngine engine(prob);

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

  // The duplicate corner simulates once.
  eval::EvalEngine engine(prob);
  const auto r = engine.evalBatch({1, 1, 2}, point, pvt::BlockKind::kSearch);
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(r[0].measurements, r[1].measurements);
  EXPECT_EQ(engine.stats().requests, 3u);
  EXPECT_EQ(engine.stats().simulated, 2u);
  EXPECT_EQ(engine.stats().cacheHits, 1u);
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
  eval::EvalEngine engine(prob);
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
  eval::EvalEngine engine(prob);
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
  struct Run {
    std::vector<core::EvalResult> results;
    eval::EvalStats stats;
    pvt::EdaLedger ledger;
  };
  std::vector<Run> runs;
  for (const std::size_t pool : testing_pool::kPoolSizes) {
    auto calls = std::make_shared<std::atomic<int>>(0);
    const auto prob = countingProblem(calls);
    eval::EvalEngine engine(prob);
    Run run;
    testing_pool::inPoolTask(pool, [&] {
      std::mt19937_64 rng(7);
      for (int k = 0; k < 20; ++k) {
        const Vector p = prob.space.randomPoint(rng);
        auto r = engine.evalBatch({0, 1, 2}, prob.space.snap(p),
                                  pvt::BlockKind::kSearch);
        run.results.insert(run.results.end(), r.begin(), r.end());
      }
    });
    run.stats = engine.stats();
    run.ledger = engine.ledger();
    runs.push_back(std::move(run));
  }
  const Run& ref = runs.front();
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const Run& run = runs[k];
    SCOPED_TRACE("pool " + std::to_string(testing_pool::kPoolSizes[k]));
    EXPECT_EQ(countersOf(run.stats), countersOf(ref.stats));
    ASSERT_EQ(run.results.size(), ref.results.size());
    for (std::size_t i = 0; i < ref.results.size(); ++i)
      EXPECT_EQ(run.results[i].measurements, ref.results[i].measurements);
    ASSERT_EQ(run.ledger.totalBlocks(), ref.ledger.totalBlocks());
    for (std::size_t i = 0; i < ref.ledger.blocks().size(); ++i) {
      EXPECT_EQ(run.ledger.blocks()[i].cornerIndex,
                ref.ledger.blocks()[i].cornerIndex);
      EXPECT_EQ(run.ledger.blocks()[i].meetsSpec,
                ref.ledger.blocks()[i].meetsSpec);
      EXPECT_EQ(run.ledger.blocks()[i].cached, ref.ledger.blocks()[i].cached);
    }
  }
}

/// Four-lane backend whose every call (one per lane chunk) holds until a
/// second call has started, or gives up after a bounded wait.
class HoldingBackend final : public eval::EvalBackend {
 public:
  std::string_view name() const override { return "holding"; }
  std::size_t batchWidth() const override { return sim::kSimLanes; }
  void evaluateBatch(const Vector* const*, const sim::PvtCorner*,
                     const eval::EvalContext*, core::EvalResult* results,
                     std::size_t count) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++started_;
    cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return started_ >= 2; }))
      ++timedOut_;
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = core::EvalResult{};
      results[i].ok = true;
      results[i].measurements = {1.0};
    }
  }
  std::size_t started() const {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }
  std::size_t timedOut() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timedOut_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::size_t started_ = 0;
  mutable std::size_t timedOut_ = 0;
};

/// A multi-chunk request made from a pool task runs its lane chunks on that
/// pool: with nine corners on a four-lane backend (chunks of 4, 4 and 1),
/// the first chunk can only finish without timing out if another chunk runs
/// beside it.
TEST(EvalEngine, ChunksFanOutOnTheCallersPool) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  core::SizingProblem prob = countingProblem(calls);
  prob.corners = pvt::nineCornerSet(1.0);
  const auto backend = std::make_shared<HoldingBackend>();
  eval::EvalEngine engine(backend, prob.space, prob.corners,
                          eval::MeetsSpecFn{});
  std::vector<std::size_t> all(prob.corners.size());
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = c;
  testing_pool::inPoolTask(4, [&] {
    const auto r = engine.evalBatch(all, {0.5, 0.5}, pvt::BlockKind::kSearch);
    ASSERT_EQ(r.size(), 9u);
    for (const core::EvalResult& x : r) EXPECT_TRUE(x.ok);
  });
  EXPECT_EQ(backend->started(), 3u);
  EXPECT_EQ(backend->timedOut(), 0u);
  EXPECT_EQ(engine.stats().simulated, 9u);
}

// ---------- warm-memo bitwise invariance of seeded searches ----------

/// The cache-blind ledger: the logical (corner, kind, meetsSpec) block
/// sequence is part of the trajectory; only the cached flags may differ.
void expectSameBlocks(const pvt::EdaLedger& a, const pvt::EdaLedger& b) {
  ASSERT_EQ(a.totalBlocks(), b.totalBlocks());
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    EXPECT_EQ(a.blocks()[i].cornerIndex, b.blocks()[i].cornerIndex);
    EXPECT_EQ(a.blocks()[i].kind, b.blocks()[i].kind);
    EXPECT_EQ(a.blocks()[i].meetsSpec, b.blocks()[i].meetsSpec);
  }
}

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
  expectSameBlocks(a.ledger, b.ledger);
}

/// Copy `from`'s memo into `to` and zero `to`'s accounting: `to` then
/// answers every request `from` simulated without simulating it.
void warmFrom(const eval::EvalEngine& from, eval::EvalEngine& to) {
  io::SectionWriter w;
  from.saveState(w);
  io::SectionReader r("engine", w.bytes());
  to.restoreState(r);
  to.resetAccounting();
}

/// A search over a memo that an identical cold run filled replays the cold
/// run — outcome, cache-blind ledger — and simulates nothing.
TEST(EvalEngineSearch, PvtSearchOnAWarmMemoReplaysTheColdRun) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto prob = countingProblem(calls);
  core::PvtSearchConfig cfg;
  cfg.seed = 21;
  cfg.explorer = core::autoSchedule(prob);
  core::PvtSearch cold(prob, cfg);
  const core::PvtSearchOutcome coldOut = cold.run(6000);
  const int coldCalls = calls->load();

  core::PvtSearch warm(prob, cfg);
  warmFrom(cold.engine(), warm.engine());
  const core::PvtSearchOutcome warmOut = warm.run(6000);
  expectSamePvtOutcome(warmOut, coldOut);
  EXPECT_EQ(calls->load(), coldCalls);
  EXPECT_EQ(warmOut.evalStats.simulated, 0u);
  EXPECT_EQ(warmOut.evalStats.cacheHits, warmOut.totalSims);
  EXPECT_EQ(warmOut.ledger.cachedBlocks(), warmOut.totalSims);
  // The cold run's accounting is self-consistent.
  EXPECT_GT(coldOut.evalStats.simulated, 0u);
  EXPECT_EQ(coldOut.evalStats.simulated + coldOut.evalStats.cacheHits,
            coldOut.totalSims);
}

TEST(EvalEngineSearch, PvtSearchThreadCountInvariant) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto prob = countingProblem(calls);
  std::vector<core::PvtSearchOutcome> outcomes;
  for (const std::size_t pool : testing_pool::kPoolSizes) {
    core::PvtSearchConfig cfg;
    cfg.strategy = core::PvtStrategy::kBruteForce;  // 3 active: real fan-out
    cfg.seed = 33;
    cfg.explorer = core::autoSchedule(prob);
    core::PvtSearch search(prob, cfg);
    testing_pool::inPoolTask(pool,
                             [&] { outcomes.push_back(search.run(5000)); });
  }
  for (std::size_t k = 1; k < outcomes.size(); ++k) {
    SCOPED_TRACE("pool " + std::to_string(testing_pool::kPoolSizes[k]));
    expectSamePvtOutcome(outcomes[k], outcomes[0]);
    EXPECT_EQ(outcomes[k].evalStats.cacheHits,
              outcomes[0].evalStats.cacheHits);
    EXPECT_EQ(outcomes[k].evalStats.simulated,
              outcomes[0].evalStats.simulated);
  }
}

/// An environment replayed over the engine an identical cold run filled
/// sees the same rewards and observations and simulates nothing.
TEST(EvalEngineSearch, SizingEnvOnAWarmMemoReplaysTheColdRun) {
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
  const auto engine = rl::makeEnvEngine(prob);
  std::vector<double> rewards[2];
  std::vector<Vector> observations[2];
  pvt::EdaLedger ledgers[2];
  eval::EvalStats stats[2];
  for (int warm = 0; warm < 2; ++warm) {
    engine->resetAccounting();  // the memo stays: the warm pass reuses it
    rl::SizingEnv env(prob, rl::EnvConfig{}, 11, *engine);
    observations[warm].push_back(env.reset());
    for (const auto& a : actionLog) {
      auto sr = env.step(a);
      rewards[warm].push_back(sr.reward);
      observations[warm].push_back(std::move(sr.observation));
      if (sr.done) observations[warm].push_back(env.reset());
    }
    EXPECT_EQ(env.simulationsUsed(), engine->stats().requests);
    ledgers[warm] = engine->ledger();
    stats[warm] = engine->stats();
  }
  EXPECT_EQ(rewards[1], rewards[0]);
  ASSERT_EQ(observations[1].size(), observations[0].size());
  for (std::size_t i = 0; i < observations[0].size(); ++i)
    EXPECT_EQ(observations[1][i], observations[0][i]);
  expectSameBlocks(ledgers[1], ledgers[0]);
  EXPECT_EQ(stats[1].simulated, 0u);
  EXPECT_EQ(stats[1].cacheHits, stats[1].requests);
  // The stride lattice forces revisits: the cold run's memo saves work too.
  EXPECT_GT(stats[0].cacheHits, 0u);
  EXPECT_LT(stats[0].simulated, stats[0].requests);
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
    eval::EvalEngine engine(prob);
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
  eval::EvalEngine engine(prob);
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

}  // namespace
}  // namespace trdse
