// Concurrent multi-job orchestrator — many searches, one machine, one meter.
//
// The ROADMAP north-star is a production system serving many sizing
// workloads at once (DNN-Opt and AutoCkt both frame sizing as exactly this
// multi-strategy, multi-task batch workload). The Scheduler multiplexes N
// JobSpecs in *rounds*: every round, each unfinished job is granted `slice`
// more EDA blocks of its own budget and stepped (strategies are resumable,
// see opt/strategy.hpp); jobs on the same circuit share simulation results
// through one eval::SharedEvalCache.
//
// One round loop, two transports. Scenario::workers only selects how a
// round's granted jobs are stepped:
//   * workers = 0 — the thread transport: jobs step concurrently on a
//     common::ThreadPool of `threads` threads (the calling thread included)
//     inside this process;
//   * workers > 0 — the process transport (orch/distributed.hpp): jobs step
//     in forked worker processes, `threads` threads each.
// Either way a job steps inside a task of that pool, so a strategy can fan
// its own step out over the round's idle threads (common::ThreadPool::
// current()) — PvtSearch fits its corner surrogates and scores candidate
// chunks that way — without oversubscribing the `threads` budget.
// Either way each stepped job yields one wire::JobRoundReport (stepJob), and
// the round barrier — progress, master-cache publish, quarantine, stall
// guard, mirror sync, journal, round hook — reads only those reports. The
// barrier, the grants, resume and the harvest therefore exist once, here.
//
// Determinism contract (asserted in tests/orch_test.cpp and
// tests/orch_dist_test.cpp, documented in docs/ORCHESTRATION.md):
//   * Fair slicing is round-robin by job index with a fixed quantum, so the
//     budget-grant sequence of every job is a function of the scenario
//     alone — never of thread or worker scheduling.
//   * Jobs only *read* the shared cache while a round runs (workers read a
//     mirror re-synced at every barrier); results simulated during a round
//     are journaled per engine, drained into the report, and inserted into
//     the master cache at the barrier, in job-index order. A lookup
//     therefore sees exactly the entries published by earlier rounds, and
//     every per-job outcome, ledger, and hit/miss counter is bitwise
//     identical for any `threads` and `workers` value.
//   * Per-job RNG streams are independent: explicit seeds are honored and
//     absent seeds derive from (baseSeed, job index) via common::perTaskSeed.
//
// Fault isolation (docs/ROBUSTNESS.md): a job whose step() throws, or whose
// engine exceeds its max_failures allowance of retry-exhausted evaluations,
// is *quarantined* at the round barrier — excluded from further rounds with
// a deterministic reason recorded in its JobResult — while every other job
// runs to completion. Quarantine decisions are made in job order from
// report state, so they are bitwise identical for any thread or worker
// count. With Scenario::journalPath set, the scheduler also write-ahead
// journals the whole run at every round barrier (orch/journal.hpp), making a
// SIGKILL'd run resumable to byte-identical results under either transport.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/shared_cache.hpp"
#include "opt/strategy.hpp"
#include "orch/job_set.hpp"
#include "orch/scenario.hpp"
#include "orch/wire.hpp"

namespace trdse::orch {

/// What one scheduling round did — handed to the round hook at each barrier
/// (after publish/quarantine/journal, before the next round starts). The
/// serve daemon streams these to subscribed clients as progress events.
struct RoundObservation {
  std::size_t round = 0;  ///< 1-based round number just completed
  struct JobProgress {
    std::size_t index = 0;       ///< job index in the scenario
    std::size_t granted = 0;     ///< cumulative budget handed out so far
    std::size_t iterations = 0;  ///< strategy iterations consumed in total
    bool finished = false;       ///< strategy reports it is done
    bool quarantined = false;    ///< failure-isolated at this barrier or earlier
    bool solved = false;         ///< current outcome meets all specs
    std::size_t sharedHits = 0;  ///< cumulative cross-job cache hits
    std::size_t simulated = 0;   ///< cumulative freshly simulated blocks
    double bestValue = 0.0;      ///< best objective value so far
  };
  /// Jobs that were runnable this round, in job-index order.
  std::vector<JobProgress> jobs;
  /// One job's share of the barrier's master-cache publishes.
  struct Publish {
    std::string scope;                        ///< the job's cache scope
    std::vector<wire::PublishEntry> entries;  ///< in insertion order
  };
  /// What the barrier inserted into the master cache, in job-index order
  /// (jobs that published nothing are absent; empty when the scenario
  /// disables the shared cache). The serve daemon logs these so a restart
  /// replays exactly the inserts this barrier made.
  std::vector<Publish> publishes;
};

/// Deterministic per-worker attribution of the process transport: owned
/// jobs and the merged mirror-probe tallies. Worker restarts are
/// deliberately *not* here — they depend on wall-clock faults — but in
/// Scheduler::events().
struct WorkerReport {
  std::vector<std::string> jobs;  ///< owned job names, job-index order
  std::size_t sharedHits = 0;     ///< mirror-probe hits merged so far
  std::size_t sharedMisses = 0;   ///< mirror-probe misses merged so far
};

class WorkerPool;  // the process transport (orch/distributed.hpp)

/// Step `job` to its current grant and report what the barrier reads: step
/// error, progress, engine accounting, and the drained publish journal
/// (left undrained when step() threw). `withBlob` adds the post-step
/// checkpoint blob. The one round body of both transports; a throwing
/// step() is captured in the report, never rethrown.
wire::JobRoundReport stepJob(BuiltJob& job, std::size_t index, bool withBlob);

/// Live outcome and engine accounting of `job` (what a harvest reads).
wire::JobHarvest harvestJob(const BuiltJob& job, std::size_t index);

/// Round-based fair-slicing orchestrator over resumable strategies.
class Scheduler {
 public:
  /// Build every job's problem (circuits::Registry or JobSpec::makeProblem)
  /// and strategy up front; throws std::invalid_argument on unknown
  /// circuit/strategy names, bad options, or a journal over a strategy that
  /// cannot checkpoint (orch::buildJobs). Forks nothing: worker processes
  /// start at the first run().
  explicit Scheduler(Scenario scenario);

  /// Same, but attach every job to `externalCache` instead of constructing a
  /// fresh SharedEvalCache (serve daemon: the cache outlives any one
  /// scenario). Ignored when the scenario disables the shared cache.
  Scheduler(Scenario scenario,
            std::shared_ptr<eval::SharedEvalCache> externalCache);

  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Run every job to completion (solved, budget exhausted, quarantined, or
  /// stalled) and return one row per job, in job order. `maxRounds` bounds
  /// how many scheduling rounds this call advances (0 = until done) — the
  /// crash-recovery tests use it to pause a run at a journaled barrier.
  /// Calling again after a bounded call continues the run; calling after the
  /// run completed throws std::logic_error. Worker processes fork on the
  /// first call and shut down when the run completes; an unrecoverable
  /// worker death (non-checkpointable strategy in flight, respawn loop)
  /// throws wire::WireError.
  std::vector<JobResult> run(std::size_t maxRounds = 0);

  /// Restore a run journaled by a previous process (Scenario::journalPath;
  /// see orch/journal.hpp): validates the journal's scenario fingerprint,
  /// restores every job's strategy, progress, and quarantine state plus the
  /// shared cache (when Scenario::journalCache), so the next run() continues
  /// bitwise where the journal was written — under either transport, since
  /// worker knobs are not fingerprinted. Must be called before the first
  /// run() of this scheduler; throws std::logic_error otherwise,
  /// io::CheckpointError on a corrupt or mismatched journal.
  void resume(const std::string& journalPath);

  /// Turn on write-ahead journaling after construction (serve daemon: the
  /// journal decision is per-submission, made after buildJobs validation).
  /// Throws std::invalid_argument when any job's strategy cannot checkpoint
  /// (same condition buildJobs enforces for Scenario::journalPath), and
  /// std::logic_error after the first run()/resume().
  void enableJournal(const std::string& journalPath);

  /// Install a hook invoked at every round barrier, after the round's
  /// publish/quarantine/journal transitions are final. The hook runs on the
  /// scheduler's calling thread from the round's reports in job order, so
  /// whatever it observes is bitwise identical for any thread or worker
  /// count.
  void setRoundHook(std::function<void(const RoundObservation&)> hook) {
    roundHook_ = std::move(hook);
  }

  /// Whether every job has completed or been quarantined.
  bool completed() const { return completed_; }

  /// The scenario as scheduled (derived seeds filled in).
  const Scenario& scenario() const { return scenario_; }
  /// The master cross-job cache (nullptr when the scenario disables it).
  const eval::SharedEvalCache* sharedCache() const { return shared_.get(); }
  /// Strategy of job `i`. In-process this is the live strategy (post-run
  /// inspection; engines stay alive with the scheduler); with workers it is
  /// the coordinator's copy, which never steps.
  const opt::Strategy& strategy(std::size_t i) const { return *jobs_[i].strategy; }

  /// Per-worker attribution for reports (empty when workers == 0).
  const std::vector<WorkerReport>& workerReports() const;

  /// Worker-failure log (death/stall + re-dispatch records) — informational,
  /// journaled under "events", never part of deterministic stdout. Always
  /// empty in-process.
  const std::vector<std::string>& events() const;

  /// Test hook (also surfaced as trdse run --debug-kill-worker): worker
  /// `worker` _exit()s upon *receiving* the run-round frame of global round
  /// `round` (1-based) — a deterministic stand-in for SIGKILL mid-round.
  /// Fires once; the respawned worker does not inherit it. Must be set
  /// before the first run(); a no-op in-process.
  void debugKillWorker(std::size_t worker, std::size_t round);

 private:
  /// Quarantine `job` with a deterministic reason (idempotent guard in the
  /// caller); the job leaves the runnable set from the next round on.
  static void quarantine(BuiltJob& job, std::string reason);
  /// Seed job `i`'s report from the coordinator's strategy (construction
  /// and resume), so the runnable set and stall guard read reports only.
  void seedReport(std::size_t i);
  /// Write the journal file (Scenario::journalPath must be set).
  void writeJournalFile();
  /// One JobResult row per job from the transport's live state.
  std::vector<JobResult> harvest();

  Scenario scenario_;
  std::shared_ptr<eval::SharedEvalCache> shared_;
  /// Jobs are constructed by orch::buildJobs; with workers the coordinator
  /// keeps them unstepped and the forked workers inherit them.
  std::vector<BuiltJob> jobs_;
  /// The process transport (nullptr = the in-process thread transport).
  std::unique_ptr<WorkerPool> workers_;
  /// Each job's latest report, by job index: this round's for the jobs just
  /// stepped, otherwise the last one (seeded before the first round).
  std::vector<wire::JobRoundReport> reports_;
  std::function<void(const RoundObservation&)> roundHook_;
  std::size_t round_ = 0;    ///< scheduling rounds completed so far
  bool started_ = false;     ///< a run() or resume() happened
  bool completed_ = false;   ///< no runnable jobs remain
};

}  // namespace trdse::orch
