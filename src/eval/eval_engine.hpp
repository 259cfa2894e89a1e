// The unified evaluation engine — Spice(X) as a batched, schedulable,
// memoizing service.
//
// Every consumer of circuit evaluations (PvtSearch, the baseline strategies,
// the RL SizingEnv, sessions, examples) routes its (sizing, corner) requests
// through one engine per search, which:
//   - dedups and memoizes requests through an EvalCache keyed on (snapped
//     grid indices, corner id) — re-simulating an already-paid-for point
//     costs zero EDA blocks;
//   - fans real simulations out across a common::ThreadPool and merges
//     results in request order, so outcomes are identical for any thread
//     count;
//   - owns the EdaLedger: each logical request records one block, with cache
//     hits flagged `cached` (zero EDA time, tallied separately), so the
//     (corner, kind, meetsSpec) block sequence — and therefore any seeded
//     search trajectory — is bitwise identical with caching on or off.
//
// Timing (EvalStats::backendSeconds) is measurement-only: it never feeds back
// into scheduling, so it is excluded from the determinism guarantees.
//
// Fault tolerance: the engine classifies every backend attempt (the result's
// FaultClass, a wall-clock deadline when RetryPolicy::timeoutSeconds is set,
// and a finiteness guard over ok results), retries transient faults up to
// RetryPolicy::maxAttempts with deterministic backoff charged to the ledger,
// and surfaces an exhausted request as a typed failed EvalResult — never an
// exception through the batch, and never a cache insert (a poisoned result
// must not be replayable from any memo).
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/problem.hpp"
#include "core/value.hpp"
#include "eval/backend.hpp"
#include "eval/eval_cache.hpp"
#include "eval/shared_cache.hpp"
#include "pvt/ledger.hpp"
#include "sim/fault.hpp"
#include "sim/sim_profile.hpp"

namespace trdse::io {
class SectionReader;
class SectionWriter;
}  // namespace trdse::io

namespace trdse::eval {

/// How the engine handles faulted attempts (docs/ROBUSTNESS.md). Defaults
/// retry transient faults twice; with `maxAttempts = 1` every fault is
/// immediately terminal (the pre-fault-tolerance behavior).
struct RetryPolicy {
  /// Total attempts per request, including the first (>= 1; 0 reads as 1).
  std::size_t maxAttempts = 3;
  /// Deterministic backoff charged to the ledger before retry k (0-based
  /// first retry): min(backoffBase << k, backoffCap) abstract units. Units
  /// are bookkeeping, not sleeps — fault scenarios stay fast and bitwise
  /// reproducible.
  std::size_t backoffBase = 1;
  std::size_t backoffCap = 8;
  /// Per-request wall-clock deadline (seconds); attempts running longer are
  /// classified kTimeout and discarded. 0 disables. Like backendSeconds,
  /// wall-clock classification is excluded from the determinism contract —
  /// leave it 0 wherever bitwise reproducibility matters.
  double timeoutSeconds = 0.0;
};

/// Engine knobs.
struct EvalEngineConfig {
  /// Memoize results on (snapped grid indices, corner id). Cache hits cost
  /// zero EDA blocks; seeded search outcomes are bitwise identical on/off.
  bool cacheEvals = true;
  /// Threads for fanning a batch's real simulations out, the caller
  /// included: 1 = inline/serial (default), 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Record one EdaBlock per logical request (and evaluate meetsSpec for
  /// it). Long-running consumers that never render a timeline — the RL
  /// SizingEnv — turn this off so the ledger does not grow unbounded;
  /// EvalStats counters are kept either way.
  bool recordLedger = true;
  /// Retry/timeout handling for faulted attempts.
  RetryPolicy retry{};
};

/// Aggregate engine counters. `requests` is the logical evaluation count the
/// search budget is charged against; `simulated` is what actually hit the
/// backend (EDA blocks consumed); `cacheHits` is the blocks saved.
struct EvalStats {
  std::size_t requests = 0;    ///< logical evaluations (simulated + hits)
  std::size_t simulated = 0;   ///< requests resolved by a clean simulation
  std::size_t cacheHits = 0;   ///< requests served from this engine's memo
  std::size_t sharedHits = 0;  ///< requests served from the cross-job cache
  double backendSeconds = 0.0; ///< wall time summed over backend calls
  // Fault accounting. `requests == simulated + cacheHits + sharedHits +
  // failures` always holds — a failed request is neither simulated (no
  // trustworthy result) nor cached (poison never enters a memo).
  std::size_t attempts = 0;     ///< backend invocations incl. retries
  std::size_t faults = 0;       ///< attempts classified as faulted
  std::size_t failures = 0;     ///< requests failed after retry exhaustion
  std::size_t backoffUnits = 0; ///< deterministic backoff charged for retries
  // Simulator phase attribution (sim/sim_profile.hpp): nanoseconds of
  // device-eval / stamp / factor / solve time sampled as deltas of the
  // process-wide phase counters around this engine's backend dispatches.
  // Exactly zero unless sim profiling is enabled (the `trdse run` report
  // turns it on); attribution is exact when one engine dispatches at a time.
  // Measurement-only like backendSeconds — excluded from determinism
  // guarantees, never persisted in checkpoints, never shipped in harvests.
  std::uint64_t simDeviceEvalNs = 0;
  std::uint64_t simStampNs = 0;
  std::uint64_t simFactorNs = 0;
  std::uint64_t simSolveNs = 0;

  std::size_t blocksSaved() const { return cacheHits + sharedHits; }
  double hitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(cacheHits + sharedHits) /
                               static_cast<double>(requests);
  }
};

/// The first request (in deterministic request order) that exhausted its
/// retries — the engine keeps it so quarantine reasons are reproducible
/// strings, not whichever thread lost a race.
struct FailureRecord {
  bool valid = false;       ///< whether any request has failed yet
  std::size_t request = 0;  ///< 0-based index in this engine's request stream
  std::size_t cornerIndex = 0;                       ///< corner it failed on
  sim::FaultClass cls = sim::FaultClass::kNone;      ///< terminal fault class
  std::size_t attempts = 0;                          ///< attempts consumed
};

/// One (key, result) pair of an engine's shared-cache publish journal.
struct PublishEntry {
  EvalKey key;
  core::EvalResult result;
};

/// Whether an EvalResult meets every spec — used for ledger bookkeeping.
using MeetsSpecFn = std::function<bool(const core::EvalResult&)>;

/// The standard ledger predicate: simulation converged and every spec of
/// `value` holds. Shared by every engine built around a problem's specs.
MeetsSpecFn makeMeetsSpec(core::ValueFunction value);

/// Batched, memoizing, thread-parallel evaluation front-end over an
/// EvalBackend. Not thread-safe itself: one engine per search/session, called
/// from the coordinating thread (the internal pool carries the parallelism).
class EvalEngine {
 public:
  /// @param backend    the simulator service (shared so sessions can reuse it)
  /// @param space      design space used to derive snapped cache keys
  /// @param corners    corner list requests index into
  /// @param meetsSpec  ledger predicate (ok + all specs); may be empty, then
  ///                   every block is recorded as not meeting spec
  EvalEngine(std::shared_ptr<const EvalBackend> backend, core::DesignSpace space,
             std::vector<sim::PvtCorner> corners, MeetsSpecFn meetsSpec,
             EvalEngineConfig config = {});

  /// Convenience: engine over a SizingProblem — CallbackBackend around
  /// problem.evaluate, the problem's space/corners, and an all-specs
  /// meetsSpec predicate.
  explicit EvalEngine(const core::SizingProblem& problem,
                      EvalEngineConfig config = {});

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  /// Evaluate one sizing on each corner of `cornerIdx` (one batch). The
  /// sizing is snapped onto the grid here, so the simulated point always
  /// matches the cache key (callers may pass raw or snapped values).
  /// Results come back in request order; cache probes and inserts, ledger
  /// records, and stats updates all happen on the calling thread in request
  /// order, so the outcome and the accounting are identical for any thread
  /// count. Duplicate (point, corner) requests inside a batch simulate once
  /// when caching is on. A request that exhausts its retries yields a failed
  /// EvalResult (ok == false, failure != kNone) in its slot — faults never
  /// throw through the batch and never enter any cache.
  std::vector<core::EvalResult> evalBatch(
      const std::vector<std::size_t>& cornerIdx, const linalg::Vector& sizes,
      pvt::BlockKind kind);

  /// Evaluate `points.size()` sizings on each corner of `cornerIdx` as one
  /// fused batch; slot `p * cornerIdx.size() + c` of the returned vector is
  /// point p on corner cornerIdx[c]. Misses from *all* points pack into
  /// consecutive simulator lanes, so per-point ragged tails (e.g. 9 corners
  /// on a 4-lane backend) stop wasting lanes once several points are in
  /// flight. Per-slot results are bitwise identical to the equivalent
  /// sequence of evalBatch calls (the backend batch contract is per-slot),
  /// and so is the accounting, with one documented exception: this is ONE
  /// batch, so a duplicate (snapped point, corner) key across points
  /// simulates once and the later slot accounts as cached — exactly the
  /// in-batch duplicate rule evalBatch already applies within a call.
  std::vector<core::EvalResult> evalPacked(
      const std::vector<linalg::Vector>& points,
      const std::vector<std::size_t>& cornerIdx, pvt::BlockKind kind);

  /// Single request (the RandomSearch / SizingEnv per-step hot path): a
  /// one-element evalBatch that returns its result directly. Request
  /// scratch is reused across calls, so a steady-state cache hit performs
  /// no allocation beyond the returned result.
  core::EvalResult evalOne(std::size_t cornerIdx, const linalg::Vector& sizes,
                           pvt::BlockKind kind);

  /// Wrap the backend in a FaultInjector driven by `plan` (no-op when the
  /// plan injects nothing), keyed on `scope` — jobs that share a fault plan
  /// and scope see identical fault schedules. Must be called before the
  /// first request; throws std::logic_error otherwise and
  /// std::invalid_argument on a null plan.
  void injectFaults(std::shared_ptr<const sim::FaultPlan> plan,
                    std::string_view scope);

  /// Replace the retry policy. Like injectFaults, only before the first
  /// request (throws std::logic_error otherwise) — mid-run policy changes
  /// would break the bitwise-reproducibility contract.
  void setRetryPolicy(const RetryPolicy& retry) {
    if (stats_.requests != 0)
      throw std::logic_error(
          "EvalEngine::setRetryPolicy: must be configured before the first "
          "request");
    config_.retry = retry;
  }

  /// Accounting owned by the engine.
  const pvt::EdaLedger& ledger() const { return ledger_; }
  const EvalStats& stats() const { return stats_; }
  /// First retry-exhausted request, if any (deterministic request order).
  const FailureRecord& firstFailure() const { return firstFailure_; }
  /// Distinct (point, corner) results memoized so far.
  std::size_t cacheSize() const { return cache_.size(); }
  const EvalBackend& backend() const { return *backend_; }
  const std::vector<sim::PvtCorner>& corners() const { return corners_; }
  const EvalEngineConfig& config() const { return config_; }

  /// Zero the ledger and stats for a fresh run; the memo is kept (results
  /// are run-independent — backends are pure).
  void resetAccounting();
  /// Drop every memoized result.
  void clearCache() { cache_.clear(); }

  /// Attach a cross-job SharedEvalCache under the named scope (the circuit
  /// or problem name — jobs on the same circuit must agree on it). On a local
  /// memo miss the engine probes the shared cache; a shared hit costs zero
  /// EDA blocks and is tallied in EvalStats::sharedHits (the ledger block is
  /// flagged `cached`). Freshly simulated results are journaled and only
  /// enter the shared cache when the owner drains the journal
  /// (drainPublishJournal) and inserts the entries — the orch::Scheduler
  /// does so at round barriers, in job order, which is what makes per-job
  /// shared hit/miss accounting independent of thread and worker counts.
  /// Must be called before the first request, on an engine with cacheEvals
  /// on (the local memo backs the journal); throws std::logic_error
  /// otherwise.
  void attachSharedCache(std::shared_ptr<SharedEvalCache> shared,
                         std::string_view scope);
  /// Whether a shared cache is attached.
  bool hasSharedCache() const { return shared_ != nullptr; }
  /// Return the results simulated since the last drain, in journal order,
  /// and clear the journal; the attached cache is not touched. Only keys
  /// still in the local memo ship, and failed results never enter the memo,
  /// so nothing poisoned is ever published. Empty without a shared cache.
  std::vector<PublishEntry> drainPublishJournal();

  /// Serialize the engine's durable state — memo contents, ledger timeline,
  /// stats counters — into a checkpoint section. Cache entries are emitted
  /// in sorted key order so identical states produce identical bytes.
  void saveState(io::SectionWriter& w) const;
  /// Replace memo/ledger/stats with state written by saveState. The restored
  /// memo is what keeps a resumed run's cached/simulated accounting bitwise
  /// identical to the uninterrupted run's.
  void restoreState(io::SectionReader& r);

 private:
  std::shared_ptr<const EvalBackend> backend_;
  core::DesignSpace space_;
  std::vector<sim::PvtCorner> corners_;
  MeetsSpecFn meetsSpec_;
  EvalEngineConfig config_;
  common::ThreadPool pool_;
  EvalCache cache_;
  pvt::EdaLedger ledger_;
  EvalStats stats_;
  FailureRecord firstFailure_;
  /// Optional cross-job cache; nullptr for the common single-search case.
  std::shared_ptr<SharedEvalCache> shared_;
  std::size_t sharedScope_ = 0;
  /// Keys simulated since the last drainPublishJournal() (empty without
  /// shared_).
  std::vector<EvalKey> unpublished_;

  /// Per-miss retry bookkeeping filled by runBatchWithRetry.
  struct MissTrace {
    std::uint32_t retries = 0;  ///< extra attempts beyond the first
    std::uint32_t backoff = 0;  ///< backoff units charged for those retries
    double seconds = 0.0;       ///< backend wall time over all attempts
  };

  /// One queued simulation: where its result lands (flat slot) and the full
  /// request identity. `sizes`/`indices` point into snaps_/keys_, which stay
  /// frozen through the parallel section.
  struct MissRef {
    std::size_t slot = 0;  ///< index into the flat result array
    const linalg::Vector* sizes = nullptr;
    const std::vector<std::size_t>* indices = nullptr;
    std::size_t cornerIndex = 0;
  };

  /// The one request body behind evalBatch, evalOne and evalPacked. Snaps
  /// the `np` sizings at `points`, probes the memos and collapses duplicate
  /// (snapped point, corner) keys serially in point-major order, dispatches
  /// the misses, then merges and accounts in the same order. Slot
  /// p * nc + c of `results` (np * nc entries, caller-allocated) is point p
  /// on corner cornerIdx[c].
  void evalRequests(const linalg::Vector* points, std::size_t np,
                    const std::size_t* cornerIdx, std::size_t nc,
                    pvt::BlockKind kind, core::EvalResult* results);

  /// Drive the miss chunk missRefs_[begin .. begin+count) through a
  /// lockstep retry loop — one backend evaluateBatch call per attempt round
  /// over the lanes still faulted — writing results and missTrace_ entries
  /// for each lane. Each attempt is classified by the result's own fault,
  /// the wall-clock deadline, and a finiteness guard; transient faults retry
  /// with deterministic backoff, and exhaustion yields a typed failed
  /// result. The fault identity tuple (indices, corner, attempt) is per
  /// lane, so a decorator's schedule cannot see the chunk shape; backend
  /// wall time, which is measurement-only, is charged once per backend call
  /// to the chunk's first lane. Thread-safe: reads only state that is frozen
  /// during the parallel section, and chunks write disjoint result/trace
  /// slots.
  void runBatchWithRetry(core::EvalResult* results, std::size_t begin,
                         std::size_t count);

  /// Fan the queued misses (missRefs_) out across the pool in consecutive
  /// chunks of the backend's batch width. Chunk boundaries depend only on
  /// the miss count and the width, so the outcome is the same for any
  /// thread count. Fills missTrace_, charges backendSeconds, and samples the
  /// simulator phase counters.
  void dispatchMisses(core::EvalResult* results);

  /// Fold the process-wide sim phase counters' growth since `before` (sampled
  /// as this engine's dispatch began) into stats_ (all-zero no-op unless sim
  /// profiling is on).
  void harvestSimPhases(const sim::SimPhaseTotals& before);

  /// One request's accounting in evalRequests' merge loop: updates stats,
  /// firstFailure_, and (when enabled) the ledger.
  void accountRequest(std::size_t cornerIndex, pvt::BlockKind kind,
                      const core::EvalResult& result, bool cached, bool shared,
                      bool isMiss, const MissTrace& trace);

  // Request scratch, reused across calls.
  std::vector<linalg::Vector> snaps_;  ///< snapped sizings (fed to backends)
  std::vector<EvalKey> keys_;          ///< per-point probe keys
  std::vector<MissRef> missRefs_;      ///< queued simulations, slot order
  std::vector<MissTrace> missTrace_;   ///< per-miss retry/timing bookkeeping
  std::vector<char> hitFlags_;         ///< request served from the memo
  std::vector<char> sharedFlags_;      ///< ... specifically the shared cache
  std::vector<std::size_t> dupOf_;     ///< in-call duplicate -> first miss
};

}  // namespace trdse::eval
