// Fault-tolerance suite: the deterministic FaultPlan/FaultInjector pair, the
// EvalEngine's retry/timeout/finiteness machinery, the no-poison guarantees
// of both cache layers, the ledger partition invariant across cache/thread/
// fault configurations, and checkpoint round trips of the fault accounting
// (including version-1 compatibility).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "eval/eval_engine.hpp"
#include "eval/fault_injector.hpp"
#include "eval/shared_cache.hpp"
#include "io/checkpoint.hpp"
#include "sim/fault.hpp"

namespace trdse::eval {
namespace {

/// 9x9 3-corner CSP with corner-dependent measurements, so batches fan out
/// across the pool and cache keys distinguish corners.
core::SizingProblem faultGridProblem() {
  core::SizingProblem p;
  p.name = "fault_grid";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 9, false},
                               {"y", 0.0, 1.0, 9, false}});
  p.measurementNames = {"closeness", "budget"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.8},
             {"budget", core::SpecKind::kAtMost, 1.6}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
               {sim::ProcessCorner::kSS, 0.9, 125.0},
               {sim::ProcessCorner::kFF, 1.1, -40.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner& c) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.66;
    const double dy = v[1] - 0.31;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy) - c.tempC / 1e4,
                      v[0] + v[1]};
    return r;
  };
  return p;
}

/// Backend that counts evaluated slots (checks which fault classes skip the
/// inner simulator entirely).
class CountingBackend final : public EvalBackend {
 public:
  std::string_view name() const override { return "counting"; }
  void evaluateBatch(const linalg::Vector* const*, const sim::PvtCorner*,
                     const EvalContext*, core::EvalResult* results,
                     std::size_t count) const override {
    calls += count;
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = core::EvalResult{};
      results[i].ok = true;
      results[i].measurements = {1.0, 2.0};
    }
  }
  mutable std::atomic<std::size_t> calls{0};
};

/// One-slot call through a backend's only evaluation entry point.
core::EvalResult evaluateOne(const EvalBackend& backend,
                             const linalg::Vector& sizes,
                             const sim::PvtCorner& corner,
                             const EvalContext& context) {
  const linalg::Vector* slot = &sizes;
  core::EvalResult r;
  backend.evaluateBatch(&slot, &corner, &context, &r, 1);
  return r;
}

sim::FaultPlanConfig planConfig(std::uint64_t seed, double timeout,
                                double nonconv, double nonfinite) {
  sim::FaultPlanConfig cfg;
  cfg.seed = seed;
  cfg.timeoutRate = timeout;
  cfg.nonConvergenceRate = nonconv;
  cfg.nonFiniteRate = nonfinite;
  return cfg;
}

// ---- FaultPlan -----------------------------------------------------------

TEST(FaultPlan, ValidatesRatesAndStall) {
  EXPECT_NO_THROW(sim::FaultPlan(planConfig(1, 0.2, 0.3, 0.5)));
  EXPECT_THROW(sim::FaultPlan(planConfig(1, -0.1, 0, 0)),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan(planConfig(1, 1.5, 0, 0)),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan(planConfig(1, 0.5, 0.4, 0.2)),
               std::invalid_argument);  // sum > 1
  sim::FaultPlanConfig bad = planConfig(1, 0.1, 0, 0);
  bad.timeoutStallSeconds = -1.0;
  EXPECT_THROW(sim::FaultPlan{bad}, std::invalid_argument);
  bad.timeoutStallSeconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sim::FaultPlan{bad}, std::invalid_argument);
}

TEST(FaultPlan, DecideIsPureSeededAndRateOrdered) {
  const sim::FaultPlan plan(planConfig(42, 0.1, 0.2, 0.1));
  const std::uint64_t scope = sim::hashScope("amp");
  std::size_t faults = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    const std::vector<std::size_t> idx = {i % 9, i / 9};
    const sim::FaultClass a = plan.decide(scope, idx, i % 3, i % 4);
    const sim::FaultClass b = plan.decide(scope, idx, i % 3, i % 4);
    EXPECT_EQ(a, b);  // pure: same tuple, same answer
    if (a != sim::FaultClass::kNone) ++faults;
  }
  // 40% aggregate rate over 500 draws: loose 3-sigma-ish bounds.
  EXPECT_GT(faults, 140u);
  EXPECT_LT(faults, 260u);

  // Different seeds give different schedules.
  const sim::FaultPlan other(planConfig(43, 0.1, 0.2, 0.1));
  bool differs = false;
  for (std::size_t i = 0; i < 200 && !differs; ++i)
    differs = plan.decide(scope, {i, 0}, 0, 0) !=
              other.decide(scope, {i, 0}, 0, 0);
  EXPECT_TRUE(differs);

  // Rate 1.0 on the first class: every draw lands in the timeout bucket.
  const sim::FaultPlan certain(planConfig(7, 1.0, 0.0, 0.0));
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(certain.decide(scope, {i}, 0, i), sim::FaultClass::kTimeout);
}

// ---- FaultInjector -------------------------------------------------------

TEST(FaultInjector, SynthesizesEachClassDeterministically) {
  const linalg::Vector sizes = {0.5, 0.5};
  const sim::PvtCorner corner{sim::ProcessCorner::kTT, 1.0, 27.0};
  const std::vector<std::size_t> indices = {4, 4};
  EvalContext ctx;
  ctx.indices = &indices;

  {  // Timeout: inner backend never invoked.
    auto inner = std::make_shared<CountingBackend>();
    FaultInjector inj(inner,
                      std::make_shared<const sim::FaultPlan>(
                          planConfig(1, 1.0, 0.0, 0.0)),
                      "amp");
    const core::EvalResult r = evaluateOne(inj, sizes, corner, ctx);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failure, sim::FaultClass::kTimeout);
    EXPECT_EQ(inner->calls, 0u);
  }
  {  // Non-convergence: inner backend never invoked.
    auto inner = std::make_shared<CountingBackend>();
    FaultInjector inj(inner,
                      std::make_shared<const sim::FaultPlan>(
                          planConfig(1, 0.0, 1.0, 0.0)),
                      "amp");
    const core::EvalResult r = evaluateOne(inj, sizes, corner, ctx);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failure, sim::FaultClass::kNonConvergence);
    EXPECT_EQ(inner->calls, 0u);
  }
  {  // Non-finite: inner runs, one measurement corrupted to NaN, and the
     // result still *claims* ok — catching it is the engine guard's job.
    auto inner = std::make_shared<CountingBackend>();
    FaultInjector inj(inner,
                      std::make_shared<const sim::FaultPlan>(
                          planConfig(1, 0.0, 0.0, 1.0)),
                      "amp");
    const core::EvalResult r = evaluateOne(inj, sizes, corner, ctx);
    EXPECT_EQ(inner->calls, 1u);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.failure, sim::FaultClass::kNone);
    bool sawNaN = false;
    for (std::size_t i = 0; i < r.measurements.size(); ++i)
      sawNaN = sawNaN || std::isnan(r.measurements[i]);
    EXPECT_TRUE(sawNaN);
  }
  // Null arguments fail loudly.
  auto inner = std::make_shared<CountingBackend>();
  auto plan = std::make_shared<const sim::FaultPlan>(planConfig(1, 0.5, 0, 0));
  EXPECT_THROW(FaultInjector(nullptr, plan, "amp"), std::invalid_argument);
  EXPECT_THROW(FaultInjector(inner, nullptr, "amp"), std::invalid_argument);
}

// ---- EvalEngine retry / failure ------------------------------------------

/// Find a grid point whose attempt-0 draw faults and attempt-1 draw is clean
/// on corner 0 under `plan` — the canonical "transient fault, retry wins"
/// request. Deterministic: the plan is a pure hash.
std::vector<std::size_t> findTransientPoint(const sim::FaultPlan& plan,
                                            std::uint64_t scope) {
  for (std::size_t x = 0; x < 9; ++x)
    for (std::size_t y = 0; y < 9; ++y) {
      const std::vector<std::size_t> idx = {x, y};
      if (plan.decide(scope, idx, 0, 0) != sim::FaultClass::kNone &&
          plan.decide(scope, idx, 0, 1) == sim::FaultClass::kNone)
        return idx;
    }
  ADD_FAILURE() << "no transient point in a 9x9 grid at 40% fault rate";
  return {0, 0};
}

TEST(EvalEngineFaults, RetriesTransientFaultAndChargesBackoff) {
  const core::SizingProblem problem = faultGridProblem();
  const sim::FaultPlan probe(planConfig(11, 0.0, 0.4, 0.0));
  const std::uint64_t scope = sim::hashScope(problem.name);
  const std::vector<std::size_t> idx = findTransientPoint(probe, scope);
  const linalg::Vector sizes = {problem.space.gridValue(0, idx[0]),
                                problem.space.gridValue(1, idx[1])};

  EvalEngine engine(problem);
  engine.injectFaults(std::make_shared<const sim::FaultPlan>(probe.config()),
                      problem.name);
  const core::EvalResult r = engine.evalOne(0, sizes, pvt::BlockKind::kSearch);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.failure, sim::FaultClass::kNone);

  const EvalStats& s = engine.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.simulated, 1u);
  EXPECT_EQ(s.failures, 0u);
  EXPECT_EQ(s.attempts, 2u);  // one fault, one clean retry
  EXPECT_EQ(s.faults, 1u);
  EXPECT_EQ(s.backoffUnits, 1u);  // min(backoffBase << 0, cap) = 1
  EXPECT_FALSE(engine.firstFailure().valid);

  ASSERT_EQ(engine.ledger().totalBlocks(), 1u);
  const pvt::EdaBlock& b = engine.ledger().blocks()[0];
  EXPECT_FALSE(b.failed);
  EXPECT_EQ(b.retries, 1u);
  EXPECT_EQ(b.backoff, 1u);
  EXPECT_EQ(engine.ledger().retriedBlocks(), 1u);
  EXPECT_EQ(engine.ledger().retryAttempts(), 1u);
  EXPECT_EQ(engine.ledger().backoffUnits(), 1u);

  // The eventually-clean result is trustworthy, so it *was* memoized: the
  // repeat is a hit and re-accrues no attempts.
  EXPECT_EQ(engine.cacheSize(), 1u);
  engine.evalOne(0, sizes, pvt::BlockKind::kSearch);
  EXPECT_EQ(engine.stats().cacheHits, 1u);
  EXPECT_EQ(engine.stats().attempts, 2u);
}

TEST(EvalEngineFaults, ExhaustionYieldsTypedFailureNeverCached) {
  const core::SizingProblem problem = faultGridProblem();
  EvalEngineConfig cfg;
  cfg.retry.maxAttempts = 2;
  EvalEngine engine(problem, cfg);
  // Rate 1.0: every attempt faults, so every request is a deterministic
  // permanent failure.
  engine.injectFaults(std::make_shared<const sim::FaultPlan>(
                          planConfig(3, 0.0, 1.0, 0.0)),
                      problem.name);

  const linalg::Vector sizes = {0.5, 0.5};
  const core::EvalResult r = engine.evalOne(0, sizes, pvt::BlockKind::kSearch);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure, sim::FaultClass::kNonConvergence);

  const EvalStats& s = engine.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.simulated, 0u);
  EXPECT_EQ(s.failures, 1u);
  EXPECT_EQ(s.attempts, 2u);
  EXPECT_EQ(s.faults, 2u);
  EXPECT_EQ(s.backoffUnits, 1u);  // charged before the one retry

  const FailureRecord& f = engine.firstFailure();
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.request, 0u);
  EXPECT_EQ(f.cornerIndex, 0u);
  EXPECT_EQ(f.cls, sim::FaultClass::kNonConvergence);
  EXPECT_EQ(f.attempts, 2u);

  // Poison never enters the memo: the repeat re-runs (and re-fails).
  EXPECT_EQ(engine.cacheSize(), 0u);
  engine.evalOne(0, sizes, pvt::BlockKind::kSearch);
  EXPECT_EQ(engine.cacheSize(), 0u);
  EXPECT_EQ(engine.stats().failures, 2u);
  EXPECT_EQ(engine.stats().attempts, 4u);
  // firstFailure keeps the *first* record.
  EXPECT_EQ(engine.firstFailure().request, 0u);

  ASSERT_EQ(engine.ledger().totalBlocks(), 2u);
  for (const pvt::EdaBlock& b : engine.ledger().blocks()) {
    EXPECT_TRUE(b.failed);
    EXPECT_FALSE(b.cached);
    EXPECT_FALSE(b.meetsSpec);
  }
  EXPECT_EQ(engine.ledger().failedBlocks(), 2u);
  EXPECT_EQ(engine.ledger().simulatedBlocks(), 0u);
}

TEST(EvalEngineFaults, BatchSurfacesFailuresInTheirSlots) {
  const core::SizingProblem problem = faultGridProblem();
  EvalEngineConfig cfg;
  cfg.retry.maxAttempts = 1;  // every fault immediately terminal
  cfg.threads = 4;
  EvalEngine engine(problem, cfg);
  engine.injectFaults(std::make_shared<const sim::FaultPlan>(
                          planConfig(19, 0.0, 0.5, 0.0)),
                      problem.name);

  const std::vector<std::size_t> allCorners = {0, 1, 2};
  const std::vector<core::EvalResult> batch =
      engine.evalBatch(allCorners, {0.25, 0.75}, pvt::BlockKind::kVerify);
  ASSERT_EQ(batch.size(), 3u);
  std::size_t failed = 0;
  for (std::size_t c = 0; c < batch.size(); ++c) {
    if (batch[c].failure != sim::FaultClass::kNone) {
      EXPECT_FALSE(batch[c].ok);
      ++failed;
    } else {
      EXPECT_TRUE(batch[c].ok);
    }
  }
  EXPECT_EQ(engine.stats().failures, failed);
  EXPECT_EQ(engine.stats().requests, 3u);
  // Only the clean slots were memoized.
  EXPECT_EQ(engine.cacheSize(), 3u - failed);
}

/// faultGridProblem plus a corner-batch evaluator (slot i = scalar evaluate
/// of corner i), so its engine's backend is 4 lanes wide and the
/// FaultInjector forwards multi-lane chunks.
core::SizingProblem faultGridBatchProblem() {
  core::SizingProblem p = faultGridProblem();
  const core::CornerEvalFn scalar = p.evaluate;
  p.evaluateBatch = [scalar](const linalg::Vector* const* sizes,
                             const sim::PvtCorner* corners,
                             core::EvalResult* results, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      results[i] = scalar(*sizes[i], corners[i]);
  };
  return p;
}

TEST(EvalEngineFaults, BatchedDispatchDrawsIdenticalFaultSlots) {
  // The fault identity tuple is (scope, snapped indices, corner, attempt) —
  // nothing about dispatch shape. So with the same plan, an engine over a
  // width-4 backend must fault on exactly the same (sizing, corner, attempt)
  // slots as one over a width-1 backend: same per-slot results, same ledger
  // rows (retries and backoff included), same fault counters, for any
  // thread count.
  const core::SizingProblem problem = faultGridBatchProblem();
  const core::SizingProblem scalarProblem = faultGridProblem();
  const std::vector<std::size_t> allCorners = {0, 1, 2};
  for (const std::size_t threads : {1u, 2u, 4u}) {
    EvalEngineConfig cfg{/*cacheEvals=*/false, threads,
                         /*recordLedger=*/true};
    cfg.retry.maxAttempts = 3;
    EvalEngine scalarEngine(scalarProblem, cfg);
    EvalEngine batchEngine(problem, cfg);
    ASSERT_EQ(scalarEngine.backend().batchWidth(), 1u);
    ASSERT_EQ(batchEngine.backend().batchWidth(), 4u);
    const auto plan = std::make_shared<const sim::FaultPlan>(
        planConfig(101, 0.15, 0.25, 0.15));
    scalarEngine.injectFaults(plan, problem.name);
    batchEngine.injectFaults(plan, problem.name);

    for (std::size_t gx = 0; gx < 9; gx += 2) {
      const linalg::Vector sizes = {problem.space.gridValue(0, gx),
                                    problem.space.gridValue(1, 8 - gx)};
      const auto rs =
          scalarEngine.evalBatch(allCorners, sizes, pvt::BlockKind::kSearch);
      const auto rb =
          batchEngine.evalBatch(allCorners, sizes, pvt::BlockKind::kSearch);
      ASSERT_EQ(rs.size(), rb.size());
      for (std::size_t c = 0; c < rs.size(); ++c) {
        EXPECT_EQ(rs[c].ok, rb[c].ok) << "corner " << c;
        EXPECT_EQ(rs[c].failure, rb[c].failure) << "corner " << c;
        ASSERT_EQ(rs[c].measurements.size(), rb[c].measurements.size());
        for (std::size_t m = 0; m < rs[c].measurements.size(); ++m)
          EXPECT_EQ(rs[c].measurements[m], rb[c].measurements[m]);
      }
    }

    const auto& ls = scalarEngine.ledger().blocks();
    const auto& lb = batchEngine.ledger().blocks();
    ASSERT_EQ(ls.size(), lb.size());
    for (std::size_t i = 0; i < ls.size(); ++i) {
      EXPECT_EQ(ls[i].cornerIndex, lb[i].cornerIndex) << "block " << i;
      EXPECT_EQ(ls[i].failed, lb[i].failed) << "block " << i;
      EXPECT_EQ(ls[i].retries, lb[i].retries) << "block " << i;
      EXPECT_EQ(ls[i].backoff, lb[i].backoff) << "block " << i;
      EXPECT_EQ(ls[i].meetsSpec, lb[i].meetsSpec) << "block " << i;
    }
    EXPECT_EQ(scalarEngine.stats().attempts, batchEngine.stats().attempts);
    EXPECT_EQ(scalarEngine.stats().faults, batchEngine.stats().faults);
    EXPECT_EQ(scalarEngine.stats().failures, batchEngine.stats().failures);
    EXPECT_EQ(scalarEngine.stats().backoffUnits,
              batchEngine.stats().backoffUnits);
    // The plan's rates are high enough that this exercises real faults.
    EXPECT_GT(scalarEngine.stats().faults, 0u);
  }
}

// ---- NaN guard without any injection -------------------------------------

/// Problem whose own evaluate leaks NaN on a stripe of the grid — the
/// "simulator emitted garbage but claimed success" case the engine guard
/// must catch even with no FaultPlan anywhere.
core::SizingProblem nanLeakProblem() {
  core::SizingProblem p = faultGridProblem();
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    r.measurements = {v[0] < 0.3 ? std::numeric_limits<double>::quiet_NaN()
                                 : 1.0 - v[0],
                      v[0] + v[1]};
    return r;
  };
  return p;
}

TEST(EvalEngineFaults, NaNGuardClassifiesUninjectedGarbage) {
  EvalEngine engine(nanLeakProblem());  // default retry: 3 attempts
  const core::EvalResult bad =
      engine.evalOne(0, {0.0, 0.5}, pvt::BlockKind::kSearch);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.failure, sim::FaultClass::kNonFinite);
  // The backend is deterministic, so every retry re-leaked NaN.
  EXPECT_EQ(engine.stats().attempts, 3u);
  EXPECT_EQ(engine.stats().faults, 3u);
  EXPECT_EQ(engine.stats().failures, 1u);
  EXPECT_EQ(engine.cacheSize(), 0u);
  ASSERT_TRUE(engine.firstFailure().valid);
  EXPECT_EQ(engine.firstFailure().cls, sim::FaultClass::kNonFinite);

  // Clean points still memoize normally.
  const core::EvalResult good =
      engine.evalOne(0, {0.875, 0.5}, pvt::BlockKind::kSearch);
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(engine.cacheSize(), 1u);
}

TEST(SharedCachePoison, InsertRejectsFaultyAndNonFiniteResults) {
  SharedEvalCache cache(4);
  const std::size_t scope = cache.scopeId("amp");
  EvalKey key;
  key.indices = {1, 2};
  key.cornerIndex = 0;

  core::EvalResult faulty;
  faulty.ok = false;
  faulty.failure = sim::FaultClass::kTimeout;
  EXPECT_THROW(cache.insert(scope, key, faulty), std::invalid_argument);

  core::EvalResult nan;
  nan.ok = true;
  nan.measurements = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(cache.insert(scope, key, nan), std::invalid_argument);
  EXPECT_EQ(cache.size(), 0u);

  core::EvalResult clean;
  clean.ok = true;
  clean.measurements = {1.0};
  EXPECT_NO_THROW(cache.insert(scope, key, clean));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedCachePoison, EngineNeverPublishesPoisonedResults) {
  auto shared = std::make_shared<SharedEvalCache>(4);
  EvalEngine engine(nanLeakProblem());
  engine.attachSharedCache(shared, "fault_grid");

  engine.evalOne(0, {0.0, 0.5}, pvt::BlockKind::kSearch);    // NaN stripe
  engine.evalOne(0, {0.875, 0.5}, pvt::BlockKind::kSearch);  // clean
  EXPECT_EQ(engine.stats().failures, 1u);

  // Only the clean result crosses the publish barrier (drain, then insert —
  // the scheduler's barrier step): a NaN that a backend leaked in one job
  // can never become another job's shared "truth".
  const std::vector<PublishEntry> entries = engine.drainPublishJournal();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].result.ok);
  EXPECT_EQ(entries[0].result.failure, sim::FaultClass::kNone);
  const std::size_t scope = shared->scopeId("fault_grid");
  for (const PublishEntry& e : entries) shared->insert(scope, e.key, e.result);
  EXPECT_EQ(shared->size(), 1u);
}

// ---- Ledger partition invariant across configurations --------------------

/// Drive a fixed, collision-rich request stream through `engine` (same
/// stream for every configuration under test).
void driveStream(EvalEngine& engine) {
  const core::DesignSpace space = faultGridProblem().space;
  const std::vector<std::size_t> allCorners = {0, 1, 2};
  for (std::size_t t = 0; t < 40; ++t) {
    const std::size_t cell = (t * t + 3 * t) % 27;  // revisits guaranteed
    const linalg::Vector sizes = {space.gridValue(0, cell % 9),
                                  space.gridValue(1, cell / 9)};
    if (t % 3 == 0)
      engine.evalBatch(allCorners, sizes, pvt::BlockKind::kSearch);
    else
      engine.evalOne(t % 3, sizes, pvt::BlockKind::kSearch);
  }
}

TEST(LedgerInvariant, HoldsAcrossCacheThreadsAndFaultConfigs) {
  const core::SizingProblem problem = faultGridProblem();
  // Reference block streams (cornerIndex, kind, meetsSpec, failed), one per
  // fault setting, captured from the first configuration that runs it.
  std::vector<pvt::EdaBlock> reference[2];
  std::size_t referenceFailures[2] = {0, 0};

  for (const bool faults : {false, true}) {
    for (const bool cacheOn : {true, false}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        EvalEngineConfig cfg;
        cfg.cacheEvals = cacheOn;
        cfg.threads = threads;
        cfg.retry.maxAttempts = 2;
        EvalEngine engine(problem, cfg);
        if (faults)
          engine.injectFaults(std::make_shared<const sim::FaultPlan>(
                                  planConfig(77, 0.1, 0.35, 0.1)),
                              problem.name);
        driveStream(engine);

        const EvalStats& s = engine.stats();
        const pvt::EdaLedger& ledger = engine.ledger();
        SCOPED_TRACE("faults=" + std::to_string(faults) +
                     " cache=" + std::to_string(cacheOn) +
                     " threads=" + std::to_string(threads));
        // The two partition invariants of the fault-tolerant pipeline.
        EXPECT_EQ(s.requests,
                  s.simulated + s.cacheHits + s.sharedHits + s.failures);
        EXPECT_EQ(ledger.totalBlocks(),
                  ledger.simulatedBlocks() + ledger.cachedBlocks() +
                      ledger.failedBlocks());
        // Ledger and stats describe the same run.
        EXPECT_EQ(ledger.totalBlocks(), s.requests);
        EXPECT_EQ(ledger.cachedBlocks(), s.cacheHits + s.sharedHits);
        EXPECT_EQ(ledger.failedBlocks(), s.failures);
        EXPECT_EQ(ledger.simulatedBlocks(), s.simulated);
        for (const pvt::EdaBlock& b : ledger.blocks())
          EXPECT_FALSE(b.cached && b.failed);
        if (faults) {
          EXPECT_GT(s.failures, 0u);
          EXPECT_GT(s.faults, s.failures);  // some faults were retried away
          EXPECT_GT(s.backoffUnits, 0u);
        } else {
          EXPECT_EQ(s.failures, 0u);
          EXPECT_EQ(s.attempts, s.simulated);
        }

        // The logical (corner, kind, meetsSpec, failed) block stream is a
        // function of the request stream and the fault plan alone — not of
        // caching or thread count.
        if (reference[faults].empty()) {
          reference[faults] = ledger.blocks();
          referenceFailures[faults] = s.failures;
        } else {
          ASSERT_EQ(ledger.totalBlocks(), reference[faults].size());
          for (std::size_t i = 0; i < reference[faults].size(); ++i) {
            EXPECT_EQ(ledger.blocks()[i].cornerIndex,
                      reference[faults][i].cornerIndex);
            EXPECT_EQ(ledger.blocks()[i].kind, reference[faults][i].kind);
            EXPECT_EQ(ledger.blocks()[i].meetsSpec,
                      reference[faults][i].meetsSpec);
            EXPECT_EQ(ledger.blocks()[i].failed, reference[faults][i].failed);
          }
          EXPECT_EQ(s.failures, referenceFailures[faults]);
        }
      }
    }
  }
}

// ---- Checkpoint round trips ----------------------------------------------

TEST(FaultCheckpoint, EngineStateRoundTripsBitwise) {
  const core::SizingProblem problem = faultGridProblem();
  EvalEngineConfig cfg;
  cfg.retry.maxAttempts = 2;
  EvalEngine a(problem, cfg);
  a.injectFaults(std::make_shared<const sim::FaultPlan>(
                     planConfig(77, 0.1, 0.35, 0.1)),
                 problem.name);
  driveStream(a);
  ASSERT_GT(a.stats().failures, 0u);

  io::SectionWriter wa;
  a.saveState(wa);

  EvalEngine b(problem, cfg);
  io::SectionReader r("engine", wa.bytes());
  b.restoreState(r);
  r.expectEnd();

  EXPECT_EQ(b.stats().requests, a.stats().requests);
  EXPECT_EQ(b.stats().failures, a.stats().failures);
  EXPECT_EQ(b.stats().attempts, a.stats().attempts);
  EXPECT_EQ(b.stats().faults, a.stats().faults);
  EXPECT_EQ(b.stats().backoffUnits, a.stats().backoffUnits);
  EXPECT_EQ(b.cacheSize(), a.cacheSize());
  ASSERT_TRUE(b.firstFailure().valid);
  EXPECT_EQ(b.firstFailure().request, a.firstFailure().request);
  EXPECT_EQ(b.firstFailure().cls, a.firstFailure().cls);
  EXPECT_EQ(b.firstFailure().attempts, a.firstFailure().attempts);
  EXPECT_EQ(b.ledger().failedBlocks(), a.ledger().failedBlocks());
  EXPECT_EQ(b.ledger().retryAttempts(), a.ledger().retryAttempts());
  EXPECT_EQ(b.ledger().backoffUnits(), a.ledger().backoffUnits());

  // save -> restore -> save is byte-identical.
  io::SectionWriter wb;
  b.saveState(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(FaultCheckpoint, RestoreReadsVersion1Snapshots) {
  const core::SizingProblem problem = faultGridProblem();
  // Hand-craft a version-1 payload: one memoized clean result, a two-block
  // ledger, stats without the fault counters — exactly what a pre-fault
  // build wrote.
  io::SectionWriter w;
  w.u64(1);                      // one cache entry
  w.indexVec({2, 3});
  w.u64(1);                      // corner index
  w.boolean(true);               // ok
  w.vec(linalg::Vector{0.9, 1.1});
  w.u64(2);                      // two ledger blocks
  w.u64(1); w.u8(0); w.boolean(true); w.boolean(false);
  w.u64(1); w.u8(0); w.boolean(true); w.boolean(true);
  w.u64(2);    // requests
  w.u64(1);    // simulated
  w.u64(1);    // cacheHits
  w.u64(0);    // sharedHits
  w.f64(0.0);  // backendSeconds

  EvalEngine engine(problem);
  io::SectionReader r("engine", w.bytes(), 1);
  engine.restoreState(r);
  r.expectEnd();

  EXPECT_EQ(engine.stats().requests, 2u);
  EXPECT_EQ(engine.stats().failures, 0u);
  EXPECT_EQ(engine.stats().attempts, 0u);
  EXPECT_FALSE(engine.firstFailure().valid);
  EXPECT_EQ(engine.cacheSize(), 1u);
  EXPECT_EQ(engine.ledger().totalBlocks(), 2u);
  EXPECT_EQ(engine.ledger().failedBlocks(), 0u);
  EXPECT_EQ(engine.ledger().cachedBlocks(), 1u);
}

TEST(FaultCheckpoint, RestoreRejectsPoisonedOrInconsistentSnapshots) {
  const core::SizingProblem problem = faultGridProblem();
  {
    // A memoized entry carrying a fault class must be refused.
    io::SectionWriter w;
    w.u64(1);
    w.indexVec({2, 3});
    w.u64(0);
    w.boolean(false);
    w.vec(linalg::Vector{});
    w.u8(static_cast<std::uint8_t>(sim::FaultClass::kNonConvergence));
    w.u64(0);  // empty ledger
    w.u64(1); w.u64(1); w.u64(0); w.u64(0); w.f64(0.0);
    w.u64(1); w.u64(0); w.u64(0); w.u64(0);  // attempts/faults/failures/backoff
    w.boolean(false); w.u64(0); w.u64(0); w.u8(0); w.u64(0);  // firstFailure

    EvalEngine engine(problem);
    io::SectionReader r("engine", w.bytes());
    EXPECT_THROW(engine.restoreState(r), io::CheckpointError);
  }
  {
    // Broken stats partition (requests != simulated + hits + failures).
    io::SectionWriter w;
    w.u64(0);  // no cache entries
    w.u64(0);  // empty ledger
    w.u64(5); w.u64(1); w.u64(1); w.u64(0); w.f64(0.0);
    w.u64(1); w.u64(0); w.u64(1); w.u64(0);
    w.boolean(true); w.u64(0); w.u64(0);
    w.u8(static_cast<std::uint8_t>(sim::FaultClass::kTimeout));
    w.u64(1);

    EvalEngine engine(problem);
    io::SectionReader r("engine", w.bytes());
    EXPECT_THROW(engine.restoreState(r), io::CheckpointError);
  }
}

}  // namespace
}  // namespace trdse::eval
