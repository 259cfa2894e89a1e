// Distributed-orchestration suite: the DistributedScheduler determinism
// contract — per-job outcomes, ledgers (cached/failed flags included),
// quarantine decisions, and shared-cache counters bitwise identical for any
// worker count {0,1,2,4} crossed with any per-worker thread count — plus the
// PR 6 fault-tolerance integration (worker SIGKILL mid-round, coordinator
// death + --resume) and the wire-format fuzz cases (bad magic, truncation,
// unknown kind, future protocol version, checksum flips → typed errors).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "eval_stats_eq.hpp"
#include "io/checkpoint.hpp"
#include "orch/distributed.hpp"
#include "orch/scenario.hpp"
#include "orch/scheduler.hpp"
#include "orch/wire.hpp"

namespace trdse::orch {
namespace {

using testing_stats::countersOf;

/// Synthetic 2-D CSP on a deliberately coarse grid (9x9 = 81 distinct
/// points), so concurrent jobs collide on cache keys within a few rounds
/// (same problem orch_test uses; separate binary, separate registration).
core::SizingProblem tinyGridProblem(double feasibleRadius = 0.08) {
  core::SizingProblem p;
  p.name = "tiny_grid";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 9, false},
                               {"y", 0.0, 1.0, 9, false}});
  p.measurementNames = {"closeness", "budget"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 1.0 - feasibleRadius},
             {"budget", core::SpecKind::kAtMost, 1.6}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.66;
    const double dy = v[1] - 0.31;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy), v[0] + v[1]};
    return r;
  };
  return p;
}

void ensureTinyGridRegistered() {
  static const bool once = [] {
    circuits::Registry::global().add(
        {"tiny_grid", "bsim45", "coarse synthetic CSP (orch_dist tests)",
         [](const sim::ProcessCard&, std::vector<sim::PvtCorner> corners) {
           core::SizingProblem p = tinyGridProblem(0.05);  // infeasible
           if (!corners.empty()) p.corners = std::move(corners);
           return p;
         }});
    // The same grid with a fused evaluator: rl_policy runs four
    // environments on it, so its slices can end mid-tick.
    circuits::Registry::global().add(
        {"tiny_grid_packed", "bsim45", "tiny_grid, fused (orch_dist tests)",
         [](const sim::ProcessCard&, std::vector<sim::PvtCorner> corners) {
           core::SizingProblem p = tinyGridProblem(0.05);
           p.name = "tiny_grid_packed";
           if (!corners.empty()) p.corners = std::move(corners);
           p.evaluateBatch = [fn = p.evaluate](
                                 const linalg::Vector* const* sizes,
                                 const sim::PvtCorner* cs,
                                 core::EvalResult* results, std::size_t n) {
             for (std::size_t k = 0; k < n; ++k)
               results[k] = fn(*sizes[k], cs[k]);
           };
           return p;
         }});
    return true;
  }();
  (void)once;
}

/// Three-corner synthetic CSP on a fine grid: each corner moves the optimum,
/// so every corner's surrogate learns a different map. Under the brute-force
/// pool every TRM step of a job fits three surrogates and scores one
/// candidate block on all of them.
core::SizingProblem triCornerProblem() {
  core::SizingProblem p;
  p.name = "tri_corner";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 61, false},
                               {"y", 0.0, 1.0, 61, false},
                               {"z", 0.0, 1.0, 61, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.985}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0},
               {sim::ProcessCorner::kSS, 0.9, 125.0},
               {sim::ProcessCorner::kFF, 1.1, -40.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner& c) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.3 - 0.001 * c.tempC;
    const double dy = v[1] - 0.7 * c.vdd;
    const double dz = v[2] - 0.5;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy + dz * dz)};
    return r;
  };
  return p;
}

void ensureTriCornerRegistered() {
  static const bool once = [] {
    circuits::Registry::global().add(
        {"tri_corner", "bsim45", "three-corner synthetic CSP (orch_dist tests)",
         // Always its own three corners (the registry fills in a one-corner
         // default when a job names none).
         [](const sim::ProcessCard&, std::vector<sim::PvtCorner>) {
           return triCornerProblem();
         }});
    return true;
  }();
  (void)once;
}

void expectSameLedger(const pvt::EdaLedger& a, const pvt::EdaLedger& b) {
  ASSERT_EQ(a.totalBlocks(), b.totalBlocks());
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    EXPECT_EQ(a.blocks()[i].cornerIndex, b.blocks()[i].cornerIndex);
    EXPECT_EQ(a.blocks()[i].kind, b.blocks()[i].kind);
    EXPECT_EQ(a.blocks()[i].meetsSpec, b.blocks()[i].meetsSpec);
    EXPECT_EQ(a.blocks()[i].cached, b.blocks()[i].cached);
    EXPECT_EQ(a.blocks()[i].failed, b.blocks()[i].failed);
    EXPECT_EQ(a.blocks()[i].retries, b.blocks()[i].retries);
    EXPECT_EQ(a.blocks()[i].backoff, b.blocks()[i].backoff);
  }
}

/// Bitwise comparison of everything a JobResult reports but the wall-clock
/// backendSeconds, which is measurement, not outcome.
void expectSameOutcome(const opt::StrategyOutcome& a,
                       const opt::StrategyOutcome& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.bestValue, b.bestValue);
  EXPECT_EQ(a.bestMeasurements, b.bestMeasurements);
  EXPECT_EQ(countersOf(a.evalStats), countersOf(b.evalStats));
  expectSameLedger(a.ledger, b.ledger);
}

void expectSameResults(const std::vector<JobResult>& a,
                       const std::vector<JobResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].name, b[j].name);
    EXPECT_EQ(a[j].seed, b[j].seed);
    EXPECT_EQ(a[j].rounds, b[j].rounds) << a[j].name;
    EXPECT_EQ(a[j].published, b[j].published) << a[j].name;
    EXPECT_EQ(a[j].failures, b[j].failures) << a[j].name;
    EXPECT_EQ(a[j].quarantined, b[j].quarantined) << a[j].name;
    EXPECT_EQ(a[j].quarantineReason, b[j].quarantineReason) << a[j].name;
    expectSameOutcome(a[j].outcome, b[j].outcome);
  }
}

/// The acceptance scenario of the determinism matrix: four jobs of three
/// different strategies on one coarse circuit, so cross-job shared hits are
/// plentiful and the barrier-ordered publish semantics actually matter.
Scenario mixedScenario() {
  ensureTinyGridRegistered();
  return parseScenarioText(
      "name = dist_accept\n"
      "slice = 12\n"
      "shards = 8\n"
      "base_seed = 5\n"
      "[job]\nname = rs_a\ncircuit = tiny_grid\nstrategy = random_search\n"
      "seed = 101\nbudget = 70\n"
      "[job]\nname = rs_b\ncircuit = tiny_grid\nstrategy = random_search\n"
      "seed = 202\nbudget = 70\n"
      "[job]\nname = bo\ncircuit = tiny_grid\nstrategy = tree_bayes_opt\n"
      "seed = 7\nbudget = 70\nopt.init_samples = 8\nopt.candidate_pool = 30\n"
      "[job]\nname = rl\ncircuit = tiny_grid\nstrategy = rl_policy\n"
      "seed = 11\nbudget = 70\nopt.hidden = 8\nopt.n_steps = 8\n",
      "inline");
}

/// Checkpointable-only scenario with injected simulator faults: one job is
/// deterministically quarantined (max_failures = 0), the others absorb their
/// failures. Every strategy checkpoints, so worker deaths are recoverable
/// and the scenario can run under a write-ahead journal.
Scenario faultyCheckpointableScenario() {
  ensureTinyGridRegistered();
  return parseScenarioText(
      "name = dist_faulty\n"
      "slice = 12\n"
      "base_seed = 5\n"
      "fault_seed = 21\n"
      "fault_nonconv = 0.45\n"
      "retry_attempts = 2\n"
      "[job]\n"
      "name = fragile\ncircuit = tiny_grid\nstrategy = random_search\n"
      "seed = 101\nbudget = 70\nmax_failures = 0\n"
      "[job]\n"
      "name = tough_rs\ncircuit = tiny_grid\nstrategy = random_search\n"
      "seed = 202\nbudget = 70\nmax_failures = 100000\n"
      "[job]\n"
      "name = tough_pvt\ncircuit = tiny_grid\nstrategy = pvt_search\n"
      "seed = 7\nbudget = 70\nmax_failures = 100000\n",
      "inline");
}

/// random_search, rl_policy and pvt_search: every strategy checkpoints. The
/// rl_policy job runs four environments (tiny_grid_packed) and is job 1, so
/// worker 1 of two owns it, and its 10-request slices end mid-tick and
/// mid-rollout (8 transitions per update).
Scenario rlCheckpointableScenario() {
  ensureTinyGridRegistered();
  return parseScenarioText(
      "name = dist_rl\n"
      "slice = 10\n"
      "base_seed = 5\n"
      "[job]\nname = rs\ncircuit = tiny_grid\nstrategy = random_search\n"
      "seed = 101\nbudget = 70\n"
      "[job]\nname = rl\ncircuit = tiny_grid_packed\nstrategy = rl_policy\n"
      "seed = 11\nbudget = 70\nopt.hidden = 8\nopt.n_steps = 8\n"
      "opt.episode_length = 10\n"
      "[job]\nname = pvt\ncircuit = tiny_grid\nstrategy = pvt_search\n"
      "seed = 7\nbudget = 70\n",
      "inline");
}

// ---- Determinism matrix --------------------------------------------------

TEST(DistributedScheduler, MatrixOfWorkersAndThreadsIsBitwiseIdentical) {
  // Baseline: workers = 0 delegates to the in-process Scheduler.
  std::vector<JobResult> baseline;
  eval::SharedEvalCache::ShardCounters baseTotals{};
  {
    DistributedScheduler sched(mixedScenario());
    baseline = sched.run();
    ASSERT_NE(sched.sharedCache(), nullptr);
    baseTotals = sched.sharedCache()->totals();
    EXPECT_TRUE(sched.completed());
    EXPECT_TRUE(sched.workerReports().empty());  // in-process path
  }
  for (const JobResult& r : baseline) {
    EXPECT_GT(r.outcome.evalStats.sharedHits, 0u) << r.name;
    EXPECT_GT(r.published, 0u) << r.name;
  }
  EXPECT_GT(baseTotals.entries, 0u);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 2u}) {
      Scenario sc = mixedScenario();
      sc.workers = workers;
      sc.threads = threads;
      DistributedScheduler sched(std::move(sc));
      const std::vector<JobResult> results = sched.run();
      EXPECT_TRUE(sched.completed());
      expectSameResults(results, baseline);

      // Master-cache counters match bitwise: entries and inserts from the
      // coordinator's job-order barrier inserts, hits/misses from the merged
      // per-shard mirror-probe deltas.
      ASSERT_NE(sched.sharedCache(), nullptr);
      const auto totals = sched.sharedCache()->totals();
      EXPECT_EQ(totals.entries, baseTotals.entries)
          << "workers=" << workers << " threads=" << threads;
      EXPECT_EQ(totals.inserts, baseTotals.inserts);
      EXPECT_EQ(totals.hits, baseTotals.hits);
      EXPECT_EQ(totals.misses, baseTotals.misses);

      // Attribution is deterministic: jobs shard round-robin by index, and
      // every worker's merged probe tallies sum to the master's totals.
      const auto& reports = sched.workerReports();
      ASSERT_EQ(reports.size(), std::min(workers, results.size()));
      std::size_t hits = 0;
      std::size_t misses = 0;
      std::size_t named = 0;
      for (const auto& rep : reports) {
        hits += rep.sharedHits;
        misses += rep.sharedMisses;
        named += rep.jobs.size();
      }
      EXPECT_EQ(named, results.size());
      EXPECT_EQ(hits, baseTotals.hits);
      EXPECT_EQ(misses, baseTotals.misses);
      EXPECT_TRUE(sched.events().empty());  // no faults injected
    }
  }
}

/// Multi-corner pvt_search jobs fan each TRM step out over the round's idle
/// threads — concurrent per-corner surrogate fits, row-chunked scoring (an
/// odd mc_samples puts a row in the GEMM tile's remainder path) — in-process
/// and inside each worker process. Rows must not move with either count.
TEST(DistributedScheduler, MultiCornerPvtSearchMatrixIsBitwiseIdentical) {
  ensureTriCornerRegistered();
  const auto scenario = [] {
    return parseScenarioText(
        "name = tri_corner_matrix\n"
        "slice = 10\n"
        "base_seed = 3\n"
        "[job]\nname = pvt_a\ncircuit = tri_corner\nstrategy = pvt_search\n"
        "seed = 17\nbudget = 90\nopt.pool = brute_force\n"
        "opt.init_samples = 6\nopt.mc_samples = 201\n"
        "[job]\nname = pvt_b\ncircuit = tri_corner\nstrategy = pvt_search\n"
        "seed = 29\nbudget = 90\nopt.pool = brute_force\n"
        "opt.init_samples = 6\nopt.mc_samples = 201\n"
        "[job]\nname = rs\ncircuit = tri_corner\nstrategy = random_search\n"
        "seed = 5\nbudget = 40\n",
        "inline");
  };
  std::vector<JobResult> baseline;
  {
    Scheduler sched(scenario());
    baseline = sched.run();
  }
  ASSERT_EQ(baseline.size(), 3u);
  for (std::size_t j = 0; j < 2; ++j) {
    // Past the init samples into TRM steps, every step on three corners.
    EXPECT_GT(baseline[j].outcome.iterations, 3u * 6u) << baseline[j].name;
    std::set<std::size_t> corners;
    for (const pvt::EdaBlock& b : baseline[j].outcome.ledger.blocks())
      corners.insert(b.cornerIndex);
    EXPECT_EQ(corners.size(), 3u) << baseline[j].name;
  }

  for (const std::size_t workers : {0u, 2u}) {
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      if (workers == 0 && threads == 1) continue;  // the baseline
      Scenario sc = scenario();
      sc.workers = workers;
      sc.threads = threads;
      Scheduler sched(std::move(sc));
      const std::vector<JobResult> results = sched.run();
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " threads=" + std::to_string(threads));
      EXPECT_TRUE(sched.completed());
      expectSameResults(results, baseline);
    }
  }
}

TEST(DistributedScheduler, FaultQuarantineMatchesInProcessBitwise) {
  std::vector<JobResult> baseline;
  {
    DistributedScheduler sched(faultyCheckpointableScenario());
    baseline = sched.run();
  }
  ASSERT_EQ(baseline.size(), 3u);
  EXPECT_TRUE(baseline[0].quarantined);
  EXPECT_NE(baseline[0].quarantineReason.find("exceed max_failures=0"),
            std::string::npos);
  EXPECT_FALSE(baseline[1].quarantined);
  EXPECT_FALSE(baseline[2].quarantined);

  for (const std::size_t workers : {1u, 2u}) {
    Scenario sc = faultyCheckpointableScenario();
    sc.workers = workers;
    DistributedScheduler sched(std::move(sc));
    expectSameResults(sched.run(), baseline);
    EXPECT_TRUE(sched.completed());
  }
}

TEST(DistributedScheduler, RoundHookObservationsMatchAcrossTransports) {
  // The round hook is built from round reports under both transports, so a
  // daemon-style observer sees the same sequence however rounds are stepped.
  const auto observe = [](std::size_t threads, std::size_t workers) {
    Scenario sc = mixedScenario();
    sc.threads = threads;
    sc.workers = workers;
    DistributedScheduler sched(std::move(sc));
    std::vector<RoundObservation> seen;
    sched.setRoundHook(
        [&seen](const RoundObservation& obs) { seen.push_back(obs); });
    sched.run();
    return seen;
  };
  const std::vector<RoundObservation> baseline = observe(1, 0);
  ASSERT_GT(baseline.size(), 1u);
  EXPECT_EQ(baseline.front().jobs.size(), 4u);
  for (const auto& [threads, workers] :
       {std::pair<std::size_t, std::size_t>{2, 0}, {1, 2}, {2, 2}}) {
    const std::vector<RoundObservation> seen = observe(threads, workers);
    ASSERT_EQ(seen.size(), baseline.size())
        << "threads=" << threads << " workers=" << workers;
    for (std::size_t r = 0; r < seen.size(); ++r) {
      EXPECT_EQ(seen[r].round, baseline[r].round);
      ASSERT_EQ(seen[r].jobs.size(), baseline[r].jobs.size());
      for (std::size_t j = 0; j < seen[r].jobs.size(); ++j) {
        const RoundObservation::JobProgress& a = seen[r].jobs[j];
        const RoundObservation::JobProgress& b = baseline[r].jobs[j];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.granted, b.granted);
        EXPECT_EQ(a.iterations, b.iterations);
        EXPECT_EQ(a.finished, b.finished);
        EXPECT_EQ(a.quarantined, b.quarantined);
        EXPECT_EQ(a.solved, b.solved);
        EXPECT_EQ(a.sharedHits, b.sharedHits);
        EXPECT_EQ(a.simulated, b.simulated);
        EXPECT_EQ(a.bestValue, b.bestValue)
            << "round " << seen[r].round << " job " << a.index;
      }
    }
  }
}

// ---- Fault tolerance: worker death, coordinator death --------------------

TEST(DistributedScheduler, WorkerKilledMidRoundIsRedispatchedBitwise) {
  std::vector<JobResult> expected;
  {
    Scenario sc = faultyCheckpointableScenario();
    sc.workers = 2;
    DistributedScheduler sched(std::move(sc));
    expected = sched.run();
  }

  // Same scenario, but worker 1 _exit()s upon receiving round 2 (the
  // deterministic stand-in for SIGKILL mid-round, also wired to
  // trdse run --debug-kill-worker). The coordinator must respawn it,
  // restore its jobs from the last barrier blobs, re-dispatch the round,
  // and land on byte-identical results.
  Scenario sc = faultyCheckpointableScenario();
  sc.workers = 2;
  DistributedScheduler sched(std::move(sc));
  sched.debugKillWorker(1, 2);
  const std::vector<JobResult> survived = sched.run();
  expectSameResults(survived, expected);

  // The death is an observable event — just never part of the results.
  ASSERT_FALSE(sched.events().empty());
  EXPECT_NE(sched.events()[0].find("worker 1"), std::string::npos);
  EXPECT_NE(sched.events()[0].find("respawned"), std::string::npos);
}

TEST(DistributedScheduler, KillingEveryWorkerInTurnStillMatches) {
  std::vector<JobResult> expected;
  {
    Scenario sc = faultyCheckpointableScenario();
    sc.workers = 2;
    DistributedScheduler sched(std::move(sc));
    expected = sched.run();
  }
  Scenario sc = faultyCheckpointableScenario();
  sc.workers = 2;
  DistributedScheduler sched(std::move(sc));
  sched.debugKillWorker(0, 1);  // round 1: nothing checkpointed yet
  sched.debugKillWorker(1, 3);
  expectSameResults(sched.run(), expected);
  EXPECT_EQ(sched.events().size(), 2u);
}

TEST(DistributedScheduler, WorkerKilledWithRlPolicyInFlightIsReplayed) {
  std::vector<JobResult> expected;
  {
    Scenario sc = rlCheckpointableScenario();
    sc.workers = 2;
    DistributedScheduler sched(std::move(sc));
    expected = sched.run();
  }
  ASSERT_EQ(expected[1].name, "rl");
  ASSERT_GT(expected[1].rounds, 3u) << "rl must still be running at round 3";

  // Worker 1 dies on receiving round 3, with rl_policy stepped twice: the
  // respawned worker restores it from its last post-step blob and replays
  // the round.
  Scenario sc = rlCheckpointableScenario();
  sc.workers = 2;
  DistributedScheduler sched(std::move(sc));
  sched.debugKillWorker(1, 3);
  expectSameResults(sched.run(), expected);
  ASSERT_EQ(sched.events().size(), 1u);
  EXPECT_NE(sched.events()[0].find("worker 1"), std::string::npos);
  EXPECT_NE(sched.events()[0].find("respawned"), std::string::npos);

  // The same rows in process.
  expectSameResults(Scheduler(rlCheckpointableScenario()).run(), expected);
}

TEST(DistributedScheduler, CoordinatorDeathResumesBitwise) {
  const std::string journal = testing::TempDir() + "dist_resume.tdck";
  const std::string wholeJournal = testing::TempDir() + "dist_whole.tdck";

  std::vector<JobResult> expected;
  {
    Scenario sc = faultyCheckpointableScenario();
    sc.workers = 2;
    sc.journalPath = wholeJournal;
    DistributedScheduler sched(std::move(sc));
    expected = sched.run();
  }

  // "Die" after two rounds: the destructor is the stand-in for SIGKILL —
  // the journal on disk is all a restarted process would have either way
  // (writeFile is atomic, so a real kill leaves the same bytes).
  {
    Scenario sc = faultyCheckpointableScenario();
    sc.workers = 2;
    sc.journalPath = journal;
    DistributedScheduler first(std::move(sc));
    first.run(2);
    EXPECT_FALSE(first.completed());
  }
  {
    Scenario sc = faultyCheckpointableScenario();
    sc.workers = 2;
    sc.journalPath = journal;
    DistributedScheduler second(std::move(sc));
    second.resume(journal);
    expectSameResults(second.run(), expected);
    EXPECT_TRUE(second.completed());
  }

  // The journal is worker-count agnostic (workers is not fingerprinted):
  // a distributed journal resumes in-process and vice versa.
  {
    Scenario sc = faultyCheckpointableScenario();
    sc.journalPath = journal;
    Scheduler inProcess(std::move(sc));
    inProcess.resume(journal);
    expectSameResults(inProcess.run(), expected);
  }
  std::remove(journal.c_str());
  std::remove(wholeJournal.c_str());
}

TEST(DistributedScheduler, JournalCacheOffHoldsUnderWorkers) {
  // The serve-daemon setup under workers: an external cache that outlives
  // the scenario, persisted elsewhere, so the journal must not embed it.
  const std::string journal = testing::TempDir() + "dist_nocache.tdck";
  std::vector<JobResult> expected;
  {
    DistributedScheduler sched(faultyCheckpointableScenario());
    expected = sched.run();
  }
  const auto scenario = [&journal] {
    Scenario sc = faultyCheckpointableScenario();
    sc.workers = 2;
    sc.journalPath = journal;
    sc.journalCache = false;
    return sc;
  };
  const auto cache = std::make_shared<eval::SharedEvalCache>(16);
  {
    DistributedScheduler first(scenario(), cache);
    first.run(2);
    EXPECT_FALSE(first.completed());
    EXPECT_EQ(first.workerReports().size(), 2u);  // the process transport ran
    const io::CheckpointReader reader = io::CheckpointReader::fromFile(journal);
    EXPECT_FALSE(reader.hasSection("shared_cache"));
    EXPECT_TRUE(reader.hasSection("jobs"));
  }
  // Resuming on the same cache object — which kept rounds 1-2's publishes —
  // reproduces the uninterrupted run.
  {
    DistributedScheduler second(scenario(), cache);
    second.resume(journal);
    expectSameResults(second.run(), expected);
    EXPECT_TRUE(second.completed());
  }
  std::remove(journal.c_str());
}

TEST(DistributedScheduler, ContractErrorsAreLoud) {
  // Engines own no threads (their chunks run on the round's pool), so
  // pvt_search has no eval_threads option: a scenario that sets it fails
  // like any unknown option, naming the key and the known ones, in process
  // and with workers alike.
  ensureTinyGridRegistered();
  for (const char* workers : {"0", "2"}) {
    SCOPED_TRACE(std::string("workers = ") + workers);
    Scenario sc = parseScenarioText(
        std::string("workers = ") + workers +
            "\n[job]\nname = pvt\ncircuit = tiny_grid\n"
            "strategy = pvt_search\nseed = 3\nbudget = 20\n"
            "opt.eval_threads = 2\n",
        "inline");
    try {
      DistributedScheduler sched(std::move(sc));
      ADD_FAILURE() << "opt.eval_threads was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("no option \"eval_threads\""), std::string::npos)
          << what;
      EXPECT_NE(what.find("(known: pool, init_samples, mc_samples)"),
                std::string::npos)
          << what;
    }
  }
  // A scheduler runs exactly once; resume is a pre-run operation.
  {
    Scenario sc = mixedScenario();
    sc.workers = 2;
    DistributedScheduler sched(std::move(sc));
    sched.run();
    EXPECT_THROW(sched.run(), std::logic_error);
    EXPECT_THROW(sched.resume("nowhere.tdck"), std::logic_error);
  }
}

// ---- Scenario parser: worker knobs ---------------------------------------

TEST(Scenario, ParsesWorkerKnobs) {
  const Scenario sc = parseScenarioText(
      "workers = 3\n"
      "worker_timeout = 2.5\n"
      "[job]\ncircuit = ldo\nstrategy = random_search\nbudget = 10\n",
      "inline");
  EXPECT_EQ(sc.workers, 3u);
  EXPECT_EQ(sc.workerTimeoutSeconds, 2.5);
  // Defaults: single-process, no stall deadline.
  const Scenario defaults = parseScenarioText(
      "[job]\ncircuit = ldo\nstrategy = random_search\nbudget = 10\n",
      "inline");
  EXPECT_EQ(defaults.workers, 0u);
  EXPECT_EQ(defaults.workerTimeoutSeconds, 0.0);
}

TEST(Scenario, RejectsMalformedWorkerKnobsWithFileAndLine) {
  const std::string tail =
      "[job]\ncircuit = ldo\nstrategy = random_search\nbudget = 10\n";
  EXPECT_THROW(parseScenarioText("workers = -1\n" + tail, "x"),
               std::invalid_argument);  // negative (stoull wrap rejected)
  EXPECT_THROW(parseScenarioText("workers = 2 4\n" + tail, "x"),
               std::invalid_argument);  // trailing junk
  EXPECT_THROW(parseScenarioText("workers = two\n" + tail, "x"),
               std::invalid_argument);
  EXPECT_THROW(parseScenarioText("workers = 2\nworkers = 4\n" + tail, "x"),
               std::invalid_argument);  // duplicate key, no last-wins
  EXPECT_THROW(parseScenarioText("worker_timeout = -0.5\n" + tail, "x"),
               std::invalid_argument);
  // NaN would switch the deadline off silently; inf and values past
  // steady_clock's range (~292 years) would overflow the deadline.
  for (const char* bad : {"nan", "inf", "1e300", "1e10"}) {
    try {
      parseScenarioText("slice = 4\nworker_timeout = " + std::string(bad) +
                            "\n" + tail,
                        "bad.scenario");
      ADD_FAILURE() << "worker_timeout = " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad.scenario:2"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("worker_timeout"),
                std::string::npos);
    }
  }
  EXPECT_EQ(parseScenarioText("worker_timeout = 1e9\n" + tail, "x")
                .workerTimeoutSeconds,
            1e9);  // ~32 years still fits
  EXPECT_THROW(parseScenarioText("[job]\ncircuit = c\nstrategy = s\n"
                                 "budget = 1\nworkers = 2\n",
                                 "x"),
               std::invalid_argument);  // global-only key inside [job]

  // Errors carry the file:line convention every parse error uses.
  try {
    parseScenarioText("slice = 4\nworkers = -1\n" + tail, "bad.scenario");
    FAIL() << "negative workers accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bad.scenario:2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("workers"), std::string::npos);
  }
}

// ---- Wire format fuzz ----------------------------------------------------

TEST(Wire, MessageRoundTripsThroughAChannel) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::FrameChannel a(fds[0]);
  wire::FrameChannel b(fds[1]);

  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRunRound);
  io::SectionWriter& r = msg.section("round");
  r.u64(7);
  r.boolean(false);
  r.u64(1);
  r.u64(3);
  r.u64(24);
  a.send(msg);

  const io::CheckpointReader got = b.recv("test");
  EXPECT_EQ(got.kind(), wire::kMsgRunRound);
  io::SectionReader rr = got.section("round");
  EXPECT_EQ(rr.u64(), 7u);
  EXPECT_FALSE(rr.boolean());
  EXPECT_EQ(rr.u64(), 1u);
  EXPECT_EQ(rr.u64(), 3u);
  EXPECT_EQ(rr.u64(), 24u);
  rr.expectEnd();
}

TEST(Wire, RejectsBadMagic) {
  EXPECT_THROW(wire::decodeFrame("garbage that is no container", "t"),
               io::CheckpointError);
  EXPECT_THROW(wire::decodeFrame("", "t"), io::CheckpointError);
}

TEST(Wire, RejectsUnknownMessageKind) {
  // A structurally valid container whose kind this build does not speak —
  // e.g. a message type added in a future release.
  io::CheckpointWriter msg = wire::makeMessage("wire/from-the-future");
  const std::string frame = wire::encodeFrame(msg);
  const std::string body = frame.substr(8);  // strip the length prefix
  EXPECT_THROW(wire::decodeFrame(body, "t"), wire::WireError);
}

TEST(Wire, RejectsFutureProtocolVersion) {
  io::CheckpointWriter msg(wire::kMsgShutdown);
  msg.section("wire").u32(wire::kWireVersion + 1);
  const std::string body = wire::encodeFrame(msg).substr(8);
  EXPECT_THROW(wire::decodeFrame(body, "t"), wire::WireError);
}

TEST(Wire, RejectsChecksumMismatch) {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgHarvest);
  std::string frame = wire::encodeFrame(msg);
  // Flip one bit in the last body byte: the container checksum (FNV-1a over
  // the body) must catch it as a typed error, never as misread state.
  frame.back() = static_cast<char>(frame.back() ^ 0x01);
  EXPECT_THROW(wire::decodeFrame(frame.substr(8), "t"), io::CheckpointError);
}

TEST(Wire, ChannelFailsLoudOnTruncationAndOversizedFrames) {
  // Peer closes mid-frame: a length prefix promising more bytes than ever
  // arrive must be a WireError, not a short read.
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    wire::FrameChannel rx(fds[0]);
    io::CheckpointWriter msg = wire::makeMessage(wire::kMsgShutdown);
    const std::string frame = wire::encodeFrame(msg);
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size() - 3),
              static_cast<ssize_t>(frame.size() - 3));
    ::close(fds[1]);
    EXPECT_THROW(rx.recv("t"), wire::WireError);
  }
  // Clean EOF before any frame is also a typed error (the caller decides
  // whether a vanished peer is fatal).
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    wire::FrameChannel rx(fds[0]);
    ::close(fds[1]);
    EXPECT_THROW(rx.recv("t"), wire::WireError);
  }
  // A corrupt length prefix past the sanity cap must fail before allocating.
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    wire::FrameChannel rx(fds[0]);
    const std::uint64_t huge = wire::kMaxFrameBytes + 1;
    std::uint8_t prefix[8];
    for (int i = 0; i < 8; ++i)
      prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
    ASSERT_EQ(::write(fds[1], prefix, 8), 8);
    EXPECT_THROW(rx.recv("t"), wire::WireError);
    ::close(fds[1]);
  }
}

TEST(Wire, PayloadCodecsRoundTrip) {
  wire::JobRoundReport rep;
  rep.jobIndex = 3;
  rep.stepError = "";
  rep.finished = true;
  rep.iterations = 42;
  rep.stats.requests = 42;
  rep.stats.simulated = 30;
  rep.stats.cacheHits = 7;
  rep.stats.sharedHits = 4;
  rep.stats.failures = 1;
  rep.stats.attempts = 45;
  rep.stats.faults = 2;
  rep.stats.backoffUnits = 3;
  rep.stats.backendSeconds = 1.25;
  rep.firstFailure.valid = true;
  rep.firstFailure.request = 12;
  rep.firstFailure.cornerIndex = 1;
  rep.firstFailure.cls = sim::FaultClass::kNonFinite;
  rep.firstFailure.attempts = 2;
  wire::PublishEntry entry;
  entry.key = {{3, 4}, 1};
  entry.result.ok = true;
  entry.result.measurements = {1.5, -2.25};
  rep.publishes.push_back(entry);
  rep.strategyBlob = std::string("blob\0with\0nuls", 14);

  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRoundResult);
  wire::writeJobRoundReport(msg.section("jobs"), rep);
  const std::string body = wire::encodeFrame(msg).substr(8);
  const io::CheckpointReader reader = wire::decodeFrame(body, "t");
  io::SectionReader r = reader.section("jobs");
  const wire::JobRoundReport back = wire::readJobRoundReport(r);
  r.expectEnd();

  EXPECT_EQ(back.jobIndex, rep.jobIndex);
  EXPECT_EQ(back.stepError, rep.stepError);
  EXPECT_EQ(back.finished, rep.finished);
  EXPECT_EQ(back.iterations, rep.iterations);
  EXPECT_EQ(back.stats, rep.stats);
  ASSERT_EQ(back.publishes.size(), 1u);
  EXPECT_EQ(back.publishes[0].key.indices, entry.key.indices);
  EXPECT_EQ(back.publishes[0].key.cornerIndex, entry.key.cornerIndex);
  EXPECT_EQ(back.publishes[0].result.measurements, entry.result.measurements);
  EXPECT_EQ(back.strategyBlob, rep.strategyBlob);
  EXPECT_TRUE(back.firstFailure.valid);
  EXPECT_EQ(back.firstFailure.request, rep.firstFailure.request);
  EXPECT_EQ(back.firstFailure.cornerIndex, rep.firstFailure.cornerIndex);
  EXPECT_EQ(back.firstFailure.cls, rep.firstFailure.cls);
  EXPECT_EQ(back.firstFailure.attempts, rep.firstFailure.attempts);
}

TEST(Wire, FailureRecordWithoutFaultClassIsRejected) {
  // A failed request always has a fault class; a worker frame claiming a
  // first failure without one is refused, as a checkpoint's is.
  wire::JobRoundReport rep;
  rep.firstFailure.valid = true;
  rep.firstFailure.request = 5;
  rep.firstFailure.attempts = 1;
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRoundResult);
  wire::writeJobRoundReport(msg.section("jobs"), rep);
  const std::string body = wire::encodeFrame(msg).substr(8);
  const io::CheckpointReader reader = wire::decodeFrame(body, "t");
  io::SectionReader r = reader.section("jobs");
  try {
    (void)wire::readJobRoundReport(r);
    FAIL() << "classless first-failure record accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("no fault class"), std::string::npos)
        << e.what();
  }
}

TEST(Wire, StatsCodecRejectsBrokenPartitionInvariant) {
  eval::EvalStats s;
  s.requests = 10;
  s.simulated = 3;  // 3 + 0 + 0 + 0 != 10
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgRoundResult);
  eval::writeEvalStats(msg.section("stats"), s);
  const std::string body = wire::encodeFrame(msg).substr(8);
  const io::CheckpointReader reader = wire::decodeFrame(body, "t");
  io::SectionReader r = reader.section("stats");
  EXPECT_THROW(eval::readEvalStats(r), io::CheckpointError);
}

}  // namespace
}  // namespace trdse::orch
