// The unified evaluation engine — Spice(X) as a batched, schedulable,
// memoizing service.
//
// Every consumer of circuit evaluations (PvtSearch, the baseline strategies,
// the RL rollout collector's environments, sessions, examples) routes its
// (sizing, corner) requests through one engine per search, which:
//   - dedups and memoizes requests through an EvalCache keyed on (snapped
//     grid indices, corner id) — re-simulating an already-paid-for point
//     costs zero EDA blocks;
//   - fans real simulations out on the pool the caller runs on
//     (common::ThreadPool::current(): a scheduler round's, a worker
//     process's, or the caller's own pool task; inline off a pool) and
//     merges results in request order, so outcomes are identical for any
//     pool size;
//   - owns the EdaLedger: each logical request records one block, with cache
//     hits flagged `cached` (zero EDA time, tallied separately), so the
//     (corner, kind, meetsSpec) block sequence — and therefore any seeded
//     search trajectory — is the same whether a request simulates or hits a
//     memo another run filled.
//
// Timing (EvalStats::backendSeconds) is measurement-only: it never feeds back
// into scheduling, so it is excluded from the determinism guarantees.
//
// Lookahead: a caller that knows its next one-point requests offers them
// with evalOne or evalBatch: RandomSearch its next sizings, TreeBayesOpt
// its remaining corners, the rollout collector its other environments in
// the tick (evalOne), and PvtSearch its episode's later init samples on the
// active corners (evalBatch). When the request must simulate, the engine
// fills the rest of its last batchWidth() lane chunk with those of them that
// miss its own memo (the shared cache is never probed for them), and keeps
// their results in a side buffer. A later request that misses both memos
// takes its buffered result and is accounted exactly as if it had simulated
// then; nothing else about a buffered lane is recorded until it is consumed.
// The caller empties the buffer at the end of each step (LookaheadScope), so
// nothing speculative is ever checkpointed, journaled, published or sent
// over the wire.
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/value.hpp"
#include "eval/backend.hpp"
#include "eval/eval_cache.hpp"
#include "eval/shared_cache.hpp"
#include "pvt/ledger.hpp"
#include "sim/fault.hpp"

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
  /// first retry): min(backoffBase << k, backoffCap) abstract units, where a
  /// shift past the bit width charges the cap; a request's total saturates
  /// at 2^32 - 1. Units are bookkeeping, not sleeps — fault scenarios stay
  /// fast and bitwise reproducible.
  std::size_t backoffBase = 1;
  std::size_t backoffCap = 8;
  /// Wall-clock deadline (seconds) for one attempt; 0 disables. It is
  /// compared with the elapsed time of the whole lane pass the attempt ran
  /// in, not of its own lane, so every lane of a pass that overruns is
  /// classified kTimeout and discarded: a request packed with others can
  /// time out where it would not alone. Like backendSeconds, wall-clock
  /// classification is excluded from the determinism contract — leave it 0
  /// wherever bitwise reproducibility matters.
  double timeoutSeconds = 0.0;
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
  /// Backend lane evaluations, retries and lookahead lanes included, counted
  /// when they run. Every other counter describes consumed requests only, so
  /// `attempts - simulated - faults` is the lane evaluations simulated ahead
  /// and never asked for (0 without a lookahead).
  std::size_t attempts = 0;
  std::size_t faults = 0;       ///< attempts of consumed requests that faulted
  std::size_t failures = 0;     ///< requests failed after retry exhaustion
  std::size_t backoffUnits = 0; ///< deterministic backoff charged for retries

  bool operator==(const EvalStats&) const = default;
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

/// The one codec for EvalStats and FailureRecord, shared by engine
/// checkpoints (saveState) and orchestration wire frames: every field, in
/// declaration order.
/// Readers fail loudly (io::CheckpointError) on a broken stats partition, an
/// unknown fault class, or a first-failure record with no fault class.
void writeEvalStats(io::SectionWriter& w, const EvalStats& s);
EvalStats readEvalStats(io::SectionReader& r);
void writeFailureRecord(io::SectionWriter& w, const FailureRecord& f);
FailureRecord readFailureRecord(io::SectionReader& r);

/// One (key, result) pair of an engine's shared-cache publish journal.
struct PublishEntry {
  EvalKey key;
  core::EvalResult result;
};

/// Whether an EvalResult meets every spec — used for ledger bookkeeping.
using MeetsSpecFn = std::function<bool(const core::EvalResult&)>;

/// A caller's upcoming one-point requests (the lookahead of
/// EvalEngine::evalOne and evalBatch).
/// Called with k = 0, 1, 2, ... in turn on the calling thread, it writes the
/// k-th next request the caller expects to make — a sizing (raw or snapped)
/// and a corner index — and returns true, or returns false once it expects
/// no more; it must return false after finitely many calls. Offer only
/// requests the caller will make if its search goes on: a lane simulated
/// ahead and never asked for is wasted backend time.
using Lookahead = std::function<bool(std::size_t k, linalg::Vector& sizes,
                                     std::size_t& cornerIdx)>;

/// The standard ledger predicate: simulation converged and every spec of
/// `value` holds. Shared by every engine built around a problem's specs.
MeetsSpecFn makeMeetsSpec(core::ValueFunction value);

/// Batched, memoizing, thread-parallel evaluation front-end over an
/// EvalBackend. Not thread-safe itself: one engine per search/session, called
/// from the coordinating thread. The engine owns no threads; its backend
/// chunks run on the caller's pool (see dispatchMisses). Every engine
/// memoizes on (snapped grid indices, corner id) and records one EdaBlock per
/// logical request; resetAccounting() and clearCache() start either afresh.
class EvalEngine {
 public:
  /// @param backend    the simulator service (shared so sessions can reuse it)
  /// @param space      design space used to derive snapped cache keys
  /// @param corners    corner list requests index into
  /// @param meetsSpec  ledger predicate (ok + all specs); may be empty, then
  ///                   every block is recorded as not meeting spec
  EvalEngine(std::shared_ptr<const EvalBackend> backend, core::DesignSpace space,
             std::vector<sim::PvtCorner> corners, MeetsSpecFn meetsSpec);

  /// Convenience: engine over a SizingProblem — CallbackBackend around
  /// problem.evaluate, the problem's space/corners, and an all-specs
  /// meetsSpec predicate.
  explicit EvalEngine(const core::SizingProblem& problem);

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  /// Evaluate one sizing on each corner of `cornerIdx` (one batch). The
  /// sizing is snapped onto the grid here, so the simulated point always
  /// matches the cache key (callers may pass raw or snapped values).
  /// Results come back in request order; cache probes and inserts, ledger
  /// records, and stats updates all happen on the calling thread in request
  /// order, so the outcome and the accounting are identical for any pool
  /// size. Duplicate (point, corner) requests inside a batch simulate once.
  /// A request that exhausts its retries yields a failed EvalResult
  /// (ok == false, failure != kNone) in its slot — faults never throw
  /// through the batch and never enter any cache.
  ///
  /// `next` offers the caller's upcoming one-point requests, as for evalOne:
  /// consulted only when some corner of this batch must simulate and its
  /// last lane chunk has room, it fills that room. A corner whose result
  /// was simulated ahead takes it from the buffer and accounts exactly as
  /// if it simulated now.
  std::vector<core::EvalResult> evalBatch(
      const std::vector<std::size_t>& cornerIdx, const linalg::Vector& sizes,
      pvt::BlockKind kind, const Lookahead& next = {});

  /// Single request (the RandomSearch / TreeBayesOpt / SizingEnv per-step
  /// hot path; a rollout collector's environments share one engine): a
  /// one-element evalBatch that returns its result directly.
  /// Request scratch is reused across calls, so a steady-state cache hit
  /// performs no allocation beyond the returned result.
  ///
  /// `next` offers the caller's upcoming requests. It is consulted only when
  /// this request must simulate (never on a hit, never on a width-1
  /// backend): the engine then fills the rest of the request's batchWidth()
  /// chunk with offered requests that miss its memo, the side buffer and
  /// the chunk so far, in offered order, and buffers their results and
  /// retry traces. The caller must empty the buffer (clearLookahead) before
  /// its step ends.
  core::EvalResult evalOne(std::size_t cornerIdx, const linalg::Vector& sizes,
                           pvt::BlockKind kind, const Lookahead& next = {});

  /// Drop every lookahead result not yet consumed. Their lane evaluations
  /// stay counted in EvalStats::attempts and backendSeconds.
  void clearLookahead() { ahead_.clear(); }
  /// Lookahead results waiting for their request (0 between steps).
  std::size_t lookaheadSize() const { return ahead_.size(); }

  /// Wrap the backend in a FaultInjector driven by `plan` (no-op when the
  /// plan injects nothing), keyed on `scope` — jobs that share a fault plan
  /// and scope see identical fault schedules. Must be called before the
  /// first request; throws std::logic_error otherwise and
  /// std::invalid_argument on a null plan.
  void injectFaults(std::shared_ptr<const sim::FaultPlan> plan,
                    std::string_view scope);

  /// Replace the backend, e.g. with a simulator service of another lane
  /// width. Like injectFaults (which wraps whatever backend is set), only
  /// before the first request: throws std::logic_error otherwise and
  /// std::invalid_argument on a null backend.
  void setBackend(std::shared_ptr<const EvalBackend> backend);

  /// Replace the retry policy (the default is RetryPolicy{}). Like
  /// injectFaults, only before the first request (throws std::logic_error
  /// otherwise) — mid-run policy changes would break the
  /// bitwise-reproducibility contract.
  void setRetryPolicy(const RetryPolicy& retry) {
    if (stats_.requests != 0)
      throw std::logic_error(
          "EvalEngine::setRetryPolicy: must be configured before the first "
          "request");
    retry_ = retry;
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
  /// Must be called before the first request; throws std::logic_error
  /// otherwise.
  void attachSharedCache(std::shared_ptr<SharedEvalCache> shared,
                         std::string_view scope);
  /// Return the results simulated since the last drain, in journal order,
  /// and clear the journal; the attached cache is not touched. Only keys
  /// still in the local memo ship, and failed results never enter the memo,
  /// so nothing poisoned is ever published. Empty without a shared cache.
  std::vector<PublishEntry> drainPublishJournal();

  /// Serialize the engine's durable state — memo contents, ledger timeline,
  /// stats counters — into a checkpoint section. Cache entries are emitted
  /// in sorted key order so identical states produce identical bytes. The
  /// lookahead buffer must be empty (it is never persisted).
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
  RetryPolicy retry_;
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

  /// One queued simulation: where its result lands and the full request
  /// identity. `sizes`/`indices` point into snap_/key_ (or the lookahead
  /// scratch), which stay frozen through the parallel section.
  struct MissRef {
    std::size_t slot = 0;  ///< request slot (unused by lookahead lanes)
    core::EvalResult* out = nullptr;  ///< where the lane's result lands
    const linalg::Vector* sizes = nullptr;
    const std::vector<std::size_t>* indices = nullptr;
    std::size_t cornerIndex = 0;
  };

  /// A lookahead lane's outcome, waiting for the request that asks for it.
  struct Ahead {
    core::EvalResult result;
    MissTrace trace;
  };

  /// The one request body behind evalBatch and evalOne. Snaps `point`,
  /// probes the memos and collapses repeated corners serially, takes
  /// buffered lookahead results, dispatches the remaining misses (plus
  /// `next`'s lookahead lanes), then merges and accounts in request order.
  /// Slot c of `results` (nc entries, caller-allocated) is corner
  /// cornerIdx[c].
  void evalRequests(const linalg::Vector& point, const std::size_t* cornerIdx,
                    std::size_t nc, pvt::BlockKind kind,
                    core::EvalResult* results, const Lookahead& next);

  /// Queue up to `room` of `next`'s offered requests as lookahead lanes
  /// behind the request misses: those that miss the memo, the buffer and
  /// every key queued so far.
  void queueLookahead(const Lookahead& next, std::size_t room);

  /// Drive the lanes missRefs_[pending_[begin .. begin+count)] through a
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
  void runBatchWithRetry(std::size_t begin, std::size_t count);

  /// Fan the lanes that need the backend (pending_) out in consecutive
  /// chunks of the backend's batch width on common::ThreadPool::current(),
  /// the pool the caller's step already fans out on (inline when there is
  /// none). Chunk boundaries depend only on the lane count and the width,
  /// so the outcome is the same for any pool size. Fills missTrace_ and
  /// charges attempts and backendSeconds.
  void dispatchMisses();

  /// The ledger partition: the ledger and the stats describe the same
  /// consumed requests (checked in debug builds).
  bool ledgerMatchesStats() const;

  /// One request's accounting in evalRequests' merge loop: updates stats,
  /// firstFailure_ and the ledger.
  void accountRequest(std::size_t cornerIndex, pvt::BlockKind kind,
                      const core::EvalResult& result, bool cached, bool shared,
                      bool isMiss, const MissTrace& trace);

  /// Lookahead results not yet asked for; emptied by clearLookahead().
  std::unordered_map<EvalKey, Ahead, EvalKeyHash> ahead_;

  // Request scratch, reused across calls.
  linalg::Vector snap_;  ///< the request's snapped sizing (fed to backends)
  EvalKey key_;          ///< the request's probe key
  /// Queued simulations: the request misses in slot order, then the
  /// lookahead lanes.
  std::vector<MissRef> missRefs_;
  std::vector<MissTrace> missTrace_;   ///< per-miss retry/timing bookkeeping
  std::vector<std::size_t> pending_;   ///< missRefs_ entries the backend runs
  std::vector<linalg::Vector> aheadSnaps_;  ///< lookahead lanes' sizings
  std::vector<EvalKey> aheadKeys_;          ///< lookahead lanes' keys
  std::vector<core::EvalResult> aheadResults_;  ///< lookahead lanes' results
  std::vector<char> hitFlags_;         ///< request served from the memo
  std::vector<char> sharedFlags_;      ///< ... specifically the shared cache
  std::vector<std::size_t> dupOf_;     ///< in-call duplicate -> first miss
};

/// Empties an engine's lookahead buffer when it goes out of scope. A
/// strategy holds one for the length of each step() (PvtSearch for each
/// run()), so nothing speculative outlives the step, even when the step
/// throws.
class LookaheadScope {
 public:
  explicit LookaheadScope(EvalEngine& engine) : engine_(engine) {}
  ~LookaheadScope() { engine_.clearLookahead(); }
  LookaheadScope(const LookaheadScope&) = delete;
  LookaheadScope& operator=(const LookaheadScope&) = delete;

 private:
  EvalEngine& engine_;
};

}  // namespace trdse::eval
