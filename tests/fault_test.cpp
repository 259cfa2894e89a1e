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
#include "eval_stats_eq.hpp"
#include "io/checkpoint.hpp"
#include "pool_task.hpp"
#include "sim/fault.hpp"

namespace trdse::eval {
namespace {

using testing_stats::countersOf;

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
  RetryPolicy retry;
  retry.maxAttempts = 2;
  EvalEngine engine(problem);
  engine.setRetryPolicy(retry);
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

TEST(EvalEngineFaults, BackoffSaturatesPastTheShiftWidth) {
  const core::SizingProblem problem = faultGridProblem();
  const linalg::Vector sizes = {0.5, 0.5};
  // Every attempt faults. 80 attempts charge before each of 79 retries:
  // 1 + 2 + 4, then the cap of 8 for retries 3..78, including those past
  // the 64-bit shift width.
  RetryPolicy retry;
  retry.maxAttempts = 80;
  retry.backoffBase = 1;
  retry.backoffCap = 8;
  EvalEngine engine(problem);
  engine.setRetryPolicy(retry);
  engine.injectFaults(std::make_shared<const sim::FaultPlan>(
                          planConfig(3, 0.0, 1.0, 0.0)),
                      problem.name);
  EXPECT_FALSE(engine.evalOne(0, sizes, pvt::BlockKind::kSearch).ok);
  EXPECT_EQ(engine.stats().attempts, 80u);
  EXPECT_EQ(engine.stats().backoffUnits, 615u);
  EXPECT_EQ(engine.ledger().backoffUnits(), 615u);
  ASSERT_EQ(engine.ledger().totalBlocks(), 1u);
  EXPECT_EQ(engine.ledger().blocks()[0].backoff, 615u);

  // A base too large to shift charges the cap, and a request's sum stops at
  // the largest 32-bit count instead of wrapping.
  RetryPolicy big;
  big.maxAttempts = 4;
  big.backoffBase = std::numeric_limits<std::size_t>::max() / 2;
  big.backoffCap = std::numeric_limits<std::size_t>::max();
  EvalEngine wide(problem);
  wide.setRetryPolicy(big);
  wide.injectFaults(std::make_shared<const sim::FaultPlan>(
                        planConfig(3, 0.0, 1.0, 0.0)),
                    problem.name);
  EXPECT_FALSE(wide.evalOne(0, sizes, pvt::BlockKind::kSearch).ok);
  EXPECT_EQ(wide.stats().backoffUnits,
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(wide.ledger().backoffUnits(),
            std::numeric_limits<std::uint32_t>::max());
}

TEST(EvalEngineFaults, BatchSurfacesFailuresInTheirSlots) {
  const core::SizingProblem problem = faultGridProblem();
  RetryPolicy retry;
  retry.maxAttempts = 1;  // every fault immediately terminal
  EvalEngine engine(problem);
  engine.setRetryPolicy(retry);
  engine.injectFaults(std::make_shared<const sim::FaultPlan>(
                          planConfig(19, 0.0, 0.5, 0.0)),
                      problem.name);

  // From a 4-thread pool task the three one-corner chunks fan out.
  const std::vector<std::size_t> allCorners = {0, 1, 2};
  std::vector<core::EvalResult> batch;
  testing_pool::inPoolTask(4, [&] {
    batch = engine.evalBatch(allCorners, {0.25, 0.75}, pvt::BlockKind::kVerify);
  });
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
  // rows (retries and backoff included), same fault counters, off a pool
  // and from pool tasks of any size.
  const core::SizingProblem problem = faultGridBatchProblem();
  const core::SizingProblem scalarProblem = faultGridProblem();
  const std::vector<std::size_t> allCorners = {0, 1, 2};
  for (const std::size_t pool : testing_pool::kPoolSizes) {
    SCOPED_TRACE("pool " + std::to_string(pool));
    RetryPolicy retry;
    retry.maxAttempts = 3;
    EvalEngine scalarEngine(scalarProblem);
    EvalEngine batchEngine(problem);
    scalarEngine.setRetryPolicy(retry);
    batchEngine.setRetryPolicy(retry);
    ASSERT_EQ(scalarEngine.backend().batchWidth(), 1u);
    ASSERT_EQ(batchEngine.backend().batchWidth(), 4u);
    const auto plan = std::make_shared<const sim::FaultPlan>(
        planConfig(101, 0.15, 0.25, 0.15));
    scalarEngine.injectFaults(plan, problem.name);
    batchEngine.injectFaults(plan, problem.name);

    testing_pool::inPoolTask(pool, [&] {
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
    });

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
    EXPECT_EQ(countersOf(scalarEngine.stats()),
              countersOf(batchEngine.stats()));
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
/// stream for every configuration under test); the results in request
/// order.
std::vector<core::EvalResult> driveStream(EvalEngine& engine) {
  const core::DesignSpace space = faultGridProblem().space;
  const std::vector<std::size_t> allCorners = {0, 1, 2};
  std::vector<core::EvalResult> results;
  for (std::size_t t = 0; t < 40; ++t) {
    const std::size_t cell = (t * t + 3 * t) % 27;  // revisits guaranteed
    const linalg::Vector sizes = {space.gridValue(0, cell % 9),
                                  space.gridValue(1, cell / 9)};
    if (t % 3 == 0) {
      for (core::EvalResult& r :
           engine.evalBatch(allCorners, sizes, pvt::BlockKind::kSearch))
        results.push_back(std::move(r));
    } else {
      results.push_back(
          engine.evalOne(t % 3, sizes, pvt::BlockKind::kSearch));
    }
  }
  return results;
}

/// Cold runs at every pool size, then two warm replays of each: over the
/// memo the cold run filled (accounting reset), and on a fresh engine over
/// the shared cache the cold run published into. Every run keeps the
/// ledger partition, and all of them give the same results and the same
/// cache-blind block stream; a warm replay simulates nothing.
TEST(LedgerInvariant, HoldsAcrossCacheThreadsAndFaultConfigs) {
  const core::SizingProblem problem = faultGridProblem();
  // Reference results and block streams (cornerIndex, kind, meetsSpec,
  // failed), one per fault setting, captured from the first run of it.
  std::vector<core::EvalResult> referenceResults[2];
  std::vector<pvt::EdaBlock> reference[2];
  std::size_t referenceFailures[2] = {0, 0};

  for (const bool faults : {false, true}) {
    for (const std::size_t pool : testing_pool::kPoolSizes) {
      const auto shared = std::make_shared<SharedEvalCache>(4);
      const auto makeEngine = [&] {
        auto engine = std::make_unique<EvalEngine>(problem);
        RetryPolicy retry;
        retry.maxAttempts = 2;
        engine->setRetryPolicy(retry);
        if (faults)
          engine->injectFaults(std::make_shared<const sim::FaultPlan>(
                                   planConfig(77, 0.1, 0.35, 0.1)),
                               problem.name);
        engine->attachSharedCache(shared, problem.name);
        return engine;
      };
      const auto check = [&](const EvalEngine& engine,
                             const std::vector<core::EvalResult>& results,
                             const std::string& run) {
        const EvalStats& s = engine.stats();
        const pvt::EdaLedger& ledger = engine.ledger();
        SCOPED_TRACE("faults=" + std::to_string(faults) + " run=" + run +
                     " pool=" + std::to_string(pool));
        const bool cold = run == "cold";
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
        if (cold) {
          EXPECT_GT(s.simulated, 0u);
          EXPECT_EQ(s.sharedHits, 0u);  // nothing published yet
        } else {
          // Every clean result was memoized or published: only the requests
          // that fail, deterministically, reach the backend again.
          EXPECT_EQ(s.simulated, 0u);
          EXPECT_EQ(s.faults, 2 * s.failures);
          EXPECT_EQ(s.attempts, s.faults);
        }
        // The memo pass is served by the engine's own memo, the shared pass
        // by the shared cache first.
        if (run == "warm memo") {
          EXPECT_EQ(s.sharedHits, 0u);
        }
        if (run == "warm shared") {
          EXPECT_GT(s.sharedHits, 0u);
        }
        if (faults) {
          EXPECT_GT(s.failures, 0u);
          EXPECT_GT(s.backoffUnits, 0u);
          if (cold) {
            EXPECT_GT(s.faults, s.failures);  // some were retried away
          }
        } else {
          EXPECT_EQ(s.failures, 0u);
          EXPECT_EQ(s.attempts, s.simulated);
        }

        // The results and the logical (corner, kind, meetsSpec, failed)
        // block stream are a function of the request stream and the fault
        // plan alone — not of what a memo held or of the pool the requests
        // came from.
        if (reference[faults].empty()) {
          referenceResults[faults] = results;
          reference[faults] = ledger.blocks();
          referenceFailures[faults] = s.failures;
          return;
        }
        ASSERT_EQ(results.size(), referenceResults[faults].size());
        for (std::size_t i = 0; i < results.size(); ++i) {
          EXPECT_EQ(results[i].ok, referenceResults[faults][i].ok);
          EXPECT_EQ(results[i].failure, referenceResults[faults][i].failure);
          EXPECT_EQ(results[i].measurements,
                    referenceResults[faults][i].measurements);
        }
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
      };

      const auto engine = makeEngine();
      std::vector<core::EvalResult> results;
      testing_pool::inPoolTask(pool, [&] { results = driveStream(*engine); });
      check(*engine, results, "cold");
      // Publish the cold run's results, as a scheduler barrier does.
      const std::size_t scope = shared->scopeId(problem.name);
      for (const PublishEntry& e : engine->drainPublishJournal())
        shared->insert(scope, e.key, e.result);

      engine->resetAccounting();  // the memo stays
      testing_pool::inPoolTask(pool, [&] { results = driveStream(*engine); });
      check(*engine, results, "warm memo");

      const auto viaShared = makeEngine();
      testing_pool::inPoolTask(pool,
                               [&] { results = driveStream(*viaShared); });
      check(*viaShared, results, "warm shared");
    }
  }
}

// ---- Checkpoint round trips ----------------------------------------------

TEST(FaultCheckpoint, EngineStateRoundTripsBitwise) {
  const core::SizingProblem problem = faultGridProblem();
  RetryPolicy retry;
  retry.maxAttempts = 2;
  EvalEngine a(problem);
  a.setRetryPolicy(retry);
  a.injectFaults(std::make_shared<const sim::FaultPlan>(
                     planConfig(77, 0.1, 0.35, 0.1)),
                 problem.name);
  driveStream(a);
  ASSERT_GT(a.stats().failures, 0u);

  io::SectionWriter wa;
  a.saveState(wa);

  EvalEngine b(problem);
  b.setRetryPolicy(retry);
  io::SectionReader r("engine", wa.bytes());
  b.restoreState(r);
  r.expectEnd();

  EXPECT_EQ(b.stats(), a.stats());
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

/// Version 2 is the one readable container version: a version-1 container
/// — the layout before the fault fields — is refused, naming its version,
/// before any section is read.
TEST(FaultCheckpoint, RefusesVersion1Containers) {
  const core::SizingProblem problem = faultGridProblem();
  EvalEngine engine(problem);
  driveStream(engine);
  io::CheckpointWriter w("engine-state");
  engine.saveState(w.section("engine"));
  std::string blob = w.finish();
  // The version is the header's second u32 (little-endian), outside the
  // body checksum.
  ASSERT_EQ(static_cast<unsigned char>(blob[4]), io::kCheckpointFormatVersion);
  EXPECT_NO_THROW(io::CheckpointReader("v2", blob));

  blob[4] = 1;
  try {
    io::CheckpointReader("v1", blob);
    FAIL() << "a version-1 container was accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
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
