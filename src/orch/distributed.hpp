// Process transport of the orch::Scheduler — forked workers over the
// checkpoint wire format.
//
// With Scenario::workers > 0 the Scheduler (orch/scheduler.hpp) steps each
// round's granted jobs through a WorkerPool instead of its in-process thread
// pool (DNN-Opt and AutoCkt both lean on parallel simulator farms for their
// sample throughput). The pool forks `workers` worker processes over
// socketpairs at the first run() and shards whole jobs across them by index
// (job i -> worker i % workers). Workers run the existing EvalEngine/Strategy
// machinery unchanged — each round they run orch::stepJob, the same round
// body as the thread transport — and every grant, round report, cache
// publish, and harvest crosses the wire as a typed frame of the io
// checkpoint container (orch/wire.hpp). The pool only moves reports: grants,
// the round barrier, the journal, and the harvest override stay in the
// Scheduler.
//
// Determinism contract — outcomes, ledgers (cached/failed flags included),
// per-job stats, and shared-cache counters are **bitwise identical to the
// thread transport for any worker count**:
//   * Workers step with a *mirror* of the shared cache (the fork-time
//     copy-on-write image of the master, re-synced at every barrier), so a
//     lookup during round R sees exactly the entries published through
//     round R-1 — the same state the in-process engines see.
//   * Round reports carry each job's drained publish journal; the Scheduler
//     inserts them into the master cache at the barrier in job-index order,
//     and barrier() ships the same lists to every mirror.
//   * Mirror-probe hit/miss tallies ship as per-shard deltas and fold into
//     the master's counters (SharedEvalCache::addProbes); shard assignment
//     is a pure key hash and sums commute, so totals match bitwise.
//
// Fault tolerance: a worker that dies (or stalls past `worker_timeout`) is
// SIGKILLed, reaped, re-forked, restored from the per-job checkpoint blobs
// of the last barrier, and its in-flight round is re-dispatched —
// deterministically, because the round's inputs are a pure function of
// barrier state. The event lands in the journal's "events" section and on
// stderr via events(). SIGKILL of the coordinator *or* a worker followed by
// --resume therefore reproduces the uninterrupted run's stdout byte-for-byte.
// Jobs whose strategy cannot checkpoint still run on workers, but a worker
// death with such a job in flight is a hard WireError (nothing to restore
// from) — the CI smoke pairs them with workers whose death is never induced.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "orch/scheduler.hpp"
#include "orch/wire.hpp"

namespace trdse::orch {

/// The scheduler's name from before it had a single round loop; the worker
/// count is just Scenario::workers.
using DistributedScheduler = Scheduler;

/// The process transport (see file header). Owned by the Scheduler, whose
/// scenario, jobs, and master cache it references.
class WorkerPool {
 public:
  /// Shard jobs round-robin over min(workers, jobs) worker slots; forks
  /// nothing.
  WorkerPool(const Scenario& scenario, std::vector<BuiltJob>& jobs,
             std::shared_ptr<eval::SharedEvalCache> shared);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Fork the workers unless they run already. The Scheduler calls this at
  /// every run(); after a resume they fork from the restored image.
  void start();
  /// Step round `round`: each job in `granted` (target in jobs[i].granted)
  /// on its owner, filling reports[i]. Dead or stalled workers are
  /// respawned and their round re-dispatched; throws wire::WireError when
  /// that is impossible.
  void step(std::size_t round, const std::vector<std::size_t>& granted,
            std::vector<wire::JobRoundReport>& reports);
  /// Barrier: ship the publishes of the clean reports among `stepped` to
  /// every mirror.
  void barrier(const std::vector<std::size_t>& stepped,
               const std::vector<wire::JobRoundReport>& reports);
  /// Live outcome and engine accounting of every job, by job index.
  std::vector<wire::JobHarvest> harvest();
  /// Job `i`'s checkpoint blob as of its last reported round; the
  /// coordinator's image (what a fork starts from) until it has stepped.
  const std::string& strategyBlob(std::size_t i);
  /// Stop every worker (idempotent; escalates to SIGKILL).
  void shutdown();

  /// See Scheduler::debugKillWorker.
  void debugKill(std::size_t worker, std::size_t round) {
    debugKills_.emplace_back(worker, round);
  }
  const std::vector<WorkerReport>& attribution() const { return attribution_; }
  const std::vector<std::string>& events() const { return events_; }

 private:
  struct Slot {
    pid_t pid = -1;
    wire::FrameChannel ch;
    std::vector<std::size_t> owned;     ///< job indices, ascending
    bool stepping = false;              ///< round dispatched, result pending
    std::size_t consecutiveDeaths = 0;  ///< respawns since last good round
    /// Stall deadline of the in-flight round (worker_timeout > 0 only).
    std::chrono::steady_clock::time_point deadline{};
  };

  std::size_t workerOf(std::size_t jobIndex) const {
    return jobIndex % slots_.size();
  }
  void spawnWorker(std::size_t w);
  /// Kill/reap `w` (if alive), re-fork it, restore its jobs from the last
  /// barrier blobs, and re-dispatch its round if one was in flight.
  void respawnWorker(std::size_t w, const std::string& why);
  void dispatchRound(std::size_t w);
  void collectRoundResults(std::vector<wire::JobRoundReport>& reports);

  const Scenario& scenario_;
  std::vector<BuiltJob>& jobs_;
  std::shared_ptr<eval::SharedEvalCache> shared_;
  std::vector<Slot> slots_;
  std::vector<WorkerReport> attribution_;
  std::vector<std::string> events_;
  bool forked_ = false;
  std::size_t round_ = 0;  ///< round being (or last) stepped
  /// This round's granted jobs (dispatch and re-dispatch read it).
  std::vector<std::size_t> granted_;
  std::vector<char> haveReport_;  ///< per job: this round's report arrived
  /// Per-job strategy blob as of the last round the job stepped in (empty
  /// until its first report; always empty for non-checkpointable
  /// strategies).
  std::vector<std::string> lastBlobs_;
  /// Pending (worker, round) debug kills (see debugKill).
  std::vector<std::pair<std::size_t, std::size_t>> debugKills_;
};

}  // namespace trdse::orch
