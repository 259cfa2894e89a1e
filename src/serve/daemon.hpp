// The sizing daemon — scenarios as submissions, simulation as a service.
//
// serve::Daemon is the tentpole of the service surface (docs/SERVICE.md): a
// single-threaded service loop that listens on a Unix-domain socket, admits
// scenario submissions (serve/submit frames) into a multi-tenant queue, and
// advances them through ordinary orch::Scheduler rounds — one round of one
// submission per tick, rotating fairly across tenants — while streaming
// per-round progress and the final report to subscribed clients.
//
// Three properties carry over from the rest of the repo and are the design
// constraints everything here serves:
//
//  * Determinism. A submission's result table is a pure function of its
//    scenario text (plus the cache it was admitted against): schedulers run
//    in-process with the scenario's own threads/slice knobs, the daemon's
//    global SharedEvalCache is attached through the same buildJobs pass the
//    CLI uses, and reported cache counters are deltas against the admission
//    snapshot — so a submission against a *fresh* daemon renders byte-
//    identical to `trdse run` of the same file.
//
//  * Durability. All service state lives under DaemonConfig::stateDir:
//    per-submission write-ahead journals (orch/journal, written inside the
//    scheduler's round barrier, for submissions whose strategies can
//    checkpoint) and the daemon's state log (serve/state_log): a base
//    snapshot plus an append-only log. Every transition — admission, round
//    barrier, completion, failure, cancel — appends one record of what it
//    changed (the round's publishes, the cache counters, the LRU and meta,
//    the submission's manifest entry) and fdatasyncs it before the next
//    round runs or the client is answered. Order matters: journal first
//    (inside the barrier), record second, and a finished submission's
//    journal is removed only once its terminal record is durable. A SIGKILL
//    at any instant loses at most the record being appended, never
//    consistency: a journaled submission resumes bitwise after a restart
//    (mid-round kills lose only the unfinished round's work), and a torn
//    log tail is truncated on recovery.
//
//  * Bounded growth. The cache is evicted by whole least-recently-used
//    scopes against DaemonConfig::cacheBudgetBytes at completion barriers,
//    never touching scopes of in-flight submissions; each eviction folds
//    the log into a new base, and so does a log grown past the base.
//
// The daemon is single-threaded by design: scheduler rounds already carry
// the intra-round parallelism (Scenario::threads), and serializing
// admission/rounds/persistence at the tick level is what makes every
// durability point a consistent barrier.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/shared_cache.hpp"
#include "orch/scheduler.hpp"
#include "orch/wire.hpp"
#include "serve/client.hpp"
#include "serve/state_log.hpp"

namespace trdse::serve {

/// Daemon knobs (all paths are created/overwritten as needed).
struct DaemonConfig {
  /// Unix-domain socket to listen on; a stale file is unlinked at bind.
  std::string socketPath;
  /// Directory for the state log and journal files (created if absent).
  std::string stateDir;
  /// Stripes of the global SharedEvalCache. Must match the persisted cache
  /// across restarts (restore rejects a geometry change) — and must match a
  /// scenario's `shards` for submit-vs-run byte identity of shard lines.
  std::size_t cacheShards = 16;
  /// Evict least-recently-used scopes past this estimated size (0 = never).
  std::uint64_t cacheBudgetBytes = 256ull << 20;
  /// Largest scenario text accepted by admission. The transport already
  /// refuses frames over wire::kMaxFrameBytes (the shared cap — one
  /// constant, two enforcement points); this knob lets an operator set a
  /// tighter service-level limit.
  std::uint64_t maxSubmissionBytes = orch::wire::kMaxFrameBytes;
  /// listen() backlog.
  int backlog = 16;
};

/// The sizing service. Construction binds the socket and recovers persisted
/// state; destruction closes connections without flushing (all durable state
/// was already written at barriers — destroying a live daemon is the moral
/// equivalent of SIGKILL, which the recovery tests lean on).
class Daemon {
 public:
  /// Bind + listen + recover (state base + log, in-flight journals).
  /// Throws wire::WireError on socket failures, io::CheckpointError on
  /// unreadable state files.
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// One service iteration: poll for connections/frames (up to
  /// `pollTimeoutMs` when idle), dispatch every readable request, then
  /// advance the fair-share pick of the active submissions by one scheduler
  /// round and persist, and fold the state log if it outgrew its base.
  /// Returns whether anything happened (a frame handled or a round run) —
  /// callers can back off when false. Throws io::CheckpointError when a
  /// round's record or a fold cannot be written.
  bool tick(int pollTimeoutMs = 0);

  /// tick() until a serve/shutdown request arrives (blocking poll while
  /// idle). In-flight journaled submissions keep their journals and resume
  /// on the next start.
  void runUntilShutdown();

  bool shutdownRequested() const { return shutdownRequested_; }
  /// Any submission queued or running.
  bool busy() const;
  /// Submissions known (all states), in admission order. (Status-row
  /// introspection for tests; clients use Client::status.)
  std::vector<JobStatus> statusRows() const;
  const eval::SharedEvalCache& cache() const { return *cache_; }
  const DaemonConfig& config() const { return config_; }

 private:
  /// One admitted scenario: its durable manifest entry plus live state.
  struct Submission : SubmissionEntry {
    explicit Submission(SubmissionEntry entry = {})
        : SubmissionEntry(std::move(entry)) {}
    // Live state (queued/running only).
    std::unique_ptr<orch::Scheduler> sched;
    bool resumePending = false;  ///< recovered journal awaits resume()
    /// The last barrier's observation; its publishes wait here until the
    /// barrier's record takes them.
    orch::RoundObservation lastObs;
    bool haveObs = false;
  };

  struct Connection {
    orch::wire::FrameChannel channel;
    std::uint64_t streamingId = 0;  ///< subscribed submission (0 = none)
  };

  std::string journalPathFor(std::uint64_t id) const;

  /// Parse + force service policy (workers=0, daemon-owned journal,
  /// journalCache off) + build the scheduler attached to the global cache.
  /// Throws std::invalid_argument on bad scenario text.
  void buildScheduler(Submission& sub);

  // Request handlers (each replies on `conn`).
  void handleFrame(Connection& conn, io::CheckpointReader& frame);
  void handleSubmit(Connection& conn, io::CheckpointReader& frame);
  void handleStatus(Connection& conn, io::CheckpointReader& frame);
  void handleStream(Connection& conn, io::CheckpointReader& frame);
  void handleCancel(Connection& conn, io::CheckpointReader& frame);

  void reject(Connection& conn, const std::string& reason);
  void sendOk(Connection& conn);
  /// Send the submission's progress/result to every subscriber; a dead
  /// subscriber is dropped, never fatal.
  void notifyProgress(const Submission& sub);
  void notifyTerminal(Submission& sub);

  JobStatus statusRowFor(const Submission& sub) const;
  ProgressEvent progressEventFor(const Submission& sub) const;
  FinalResult finalResultFor(const Submission& sub) const;

  /// Two-level fair pick: tenants in first-admission order rotate round-
  /// robin (continuing after meta_.lastServedTenant); within a tenant,
  /// submissions run in admission order. Returns nullptr when idle.
  Submission* pickNext();
  /// Advance `sub` one scheduler round; on completion render its report,
  /// drop its scheduler, enforce the cache budget, and notify subscribers.
  void advance(Submission& sub);
  void finish(Submission& sub, std::vector<orch::JobResult> rows);
  void fail(Submission& sub, const std::string& error);

  /// Append `sub`'s record, taking the publishes its last barrier left in
  /// lastObs. A failure here is fatal to the service loop (the in-memory
  /// state is already ahead of the disk); recovery resumes from the last
  /// durable record.
  void persist(Submission& sub);
  /// Fold the full state into a new base (StateLog::writeBase).
  void writeBase();
  void recover();

  DaemonConfig config_;
  int listenFd_ = -1;
  std::shared_ptr<eval::SharedEvalCache> cache_;
  StateLog log_;
  DaemonMeta meta_;
  std::vector<std::unique_ptr<Submission>> submissions_;
  std::vector<Connection> connections_;
  bool shutdownRequested_ = false;
};

}  // namespace trdse::serve
