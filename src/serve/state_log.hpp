// Durable state of the sizing daemon: one base snapshot plus an append-only
// log of what each transition changed.
//
// Everything the daemon must survive a restart with — the global
// eval::SharedEvalCache, the scope LRU order that bounds it, the fair-share
// rotation point, and every submission's manifest entry — lives in two files
// under DaemonConfig::stateDir:
//
//  * `state.log`, the append-only log. Every durable transition (admission,
//    round barrier, completion, failure, cancel) appends one record and
//    fdatasyncs it before the daemon moves on. A record is laid out like an
//    orch/wire frame, `[u64 length][TDCK container]`, so the container's
//    checksum vouches for it. It holds the generation of the base it
//    extends, the cache's scope names (in id order), that barrier's
//    publishes with their scope names, the absolute per-shard hit/miss/
//    insert counters, the LRU order and daemon meta, and the manifest entry
//    of the one submission that changed. A round that publishes nothing
//    therefore appends a few kilobytes however large the cache is.
//  * `state.base`, the base snapshot: `cache`, `lru`, `meta` and `jobs`
//    sections (the layout of the parent-format pair below) in one
//    container, written atomically (io::CheckpointWriter::writeFile). A
//    base is written only when there is something to fold — after
//    recovering a non-empty log, after an eviction (so replay can never
//    bring an evicted scope back), and when the log outgrows the base past
//    a fixed floor — and never on a fresh state dir. Each base starts a new
//    generation and empties the log; a record of an older generation (left
//    by a crash between the base's rename and the log's reset) is skipped
//    on replay.
//
// Recovery reads the base (or, once, a parent-format `shared.cache` plus
// `daemon.manifest` pair, through the same section readers), then replays
// the log: publishes through plain SharedEvalCache::insert, then the
// absolute counters. The first record that is cut short or fails its
// checksum ends the log — everything from it on is a torn tail and is
// truncated away, so a crash mid-append costs exactly that record.
//
// Scope recency is tracked here too: scopes (circuit namespaces) are the
// eviction granularity, touched at deterministic points only (admission and
// round barriers of the submissions using them), and whole least-recently-
// used scopes are dropped when the estimated cache size exceeds the byte
// budget. Keeping recency out of concurrent find() calls is what preserves
// the orchestrator's bitwise thread-count invariance (see SharedEvalCache's
// eviction-support notes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/shared_cache.hpp"
#include "io/checkpoint.hpp"
#include "orch/job_set.hpp"
#include "orch/scheduler.hpp"

namespace trdse::serve {

/// File names under the state dir.
inline constexpr char kStateLogFile[] = "state.log";
inline constexpr char kStateBaseFile[] = "state.base";

/// Scope recency, most recently used first. Names not (yet) registered in
/// the cache are tolerated — a budget pass simply skips them.
using ScopeLru = std::vector<std::string>;

/// Mark `scope` most recently used (moves or prepends).
void touchScope(ScopeLru& lru, const std::string& scope);

/// Evict whole scopes, least recently used first, until the cache's
/// estimated bytes fit `budgetBytes` (0 = unbounded). Scopes named in
/// `pinned` (active submissions) are never evicted — their jobs hold live
/// probe expectations. Returns the evicted scope names, LRU order.
std::vector<std::string> enforceBudget(eval::SharedEvalCache& cache,
                                       const ScopeLru& lru,
                                       std::uint64_t budgetBytes,
                                       const std::vector<std::string>& pinned);

/// The daemon's durable fields besides the cache and the submissions.
struct DaemonMeta {
  std::uint64_t nextId = 1;      ///< id the next admitted submission gets
  std::string lastServedTenant;  ///< fair-share rotation point
  ScopeLru lru;                  ///< cache scope recency
};

/// One submission's durable fields — its manifest entry.
struct SubmissionEntry {
  enum class State : std::uint8_t {
    kQueued = 0,
    kRunning = 1,
    kCompleted = 2,
    kFailed = 3,
    kCancelled = 4,
  };
  std::uint64_t id = 0;
  std::string tenant;
  std::string source;        ///< parse-error label from the client
  std::string scenarioText;  ///< verbatim submitted text (rebuilds runs)
  bool wantJournal = true;
  State state = State::kQueued;
  bool journaled = false;     ///< write-ahead journal granted
  bool usesGlobalCache = false;
  std::string scenarioName;
  std::size_t jobsTotal = 0;
  std::size_t roundsCompleted = 0;
  /// Global-cache per-shard counters at admission — the report baseline.
  std::vector<eval::SharedEvalCache::ShardCounters> baseline;
  /// Cache scopes its jobs use (LRU touches, eviction pinning).
  std::vector<std::string> scopes;
  std::string report;  ///< rendered summary (completed)
  bool quarantined = false;
  std::vector<orch::JobResult> rows;
  std::string error;  ///< failure reason (failed)
};

/// Manifest-entry codec (the layout of a `jobs` section element).
void writeSubmissionEntry(io::SectionWriter& w, const SubmissionEntry& e);
SubmissionEntry readSubmissionEntry(io::SectionReader& r);

/// What a restart rebuilds the daemon from; the cache is restored in place.
struct RecoveredState {
  DaemonMeta meta;
  std::vector<SubmissionEntry> jobs;  ///< admission order
  /// Recovery read log records or a parent-format state dir: the caller
  /// should fold them into a new base (StateLog::writeBase).
  bool fold = false;
};

/// The base + log pair of one state dir. Not thread-safe: the daemon calls
/// it from its service loop only, at barriers.
class StateLog {
 public:
  /// Bind to `stateDir` (which must exist by recover()); touches nothing.
  explicit StateLog(std::string stateDir);
  ~StateLog();
  StateLog(const StateLog&) = delete;
  StateLog& operator=(const StateLog&) = delete;

  /// Restore `cache` (fresh, with the persisted shard count) and return the
  /// rest of the durable state: base (or parent-format pair), then every
  /// record of the base's generation. Truncates a torn or corrupt tail and
  /// opens the log for appending; call once, before append/writeBase.
  /// Throws io::CheckpointError on an unreadable base, a shard-count
  /// mismatch, or a checksummed record that does not decode (a format
  /// mismatch is not a torn write).
  RecoveredState recover(eval::SharedEvalCache& cache);

  /// Append one record — `publishes`, the cache's scope names and counters,
  /// `meta`, and `entry` — and fdatasync it. On failure the log is cut back
  /// to its previous end and io::CheckpointError names the file and the
  /// error; nothing of the record counts as written.
  void append(const std::vector<orch::RoundObservation::Publish>& publishes,
              const eval::SharedEvalCache& cache, const DaemonMeta& meta,
              const SubmissionEntry& entry);

  /// Write the next generation's base from the full state (`jobs` in
  /// admission order), durably, then empty the log. A parent-format pair
  /// read by recover() is deleted once the base is on disk. Call only from
  /// a barrier — SharedEvalCache::saveState is not safe against concurrent
  /// writers.
  void writeBase(const eval::SharedEvalCache& cache, const DaemonMeta& meta,
                 const std::vector<const SubmissionEntry*>& jobs);

  /// Whether the log has outgrown the base (and a fixed floor), so the
  /// caller should fold it with writeBase.
  bool outgrewBase() const;

 private:
  std::string path(const char* file) const;

  std::string dir_;
  int fd_ = -1;                  ///< the log, open from recover() on
  std::uint64_t generation_ = 0; ///< of the base on disk (0 = none)
  std::uint64_t logBytes_ = 0;   ///< valid bytes in the log
  std::uint64_t baseBytes_ = 0;  ///< size of the base on disk
  bool legacy_ = false;          ///< recover() read a parent-format pair
};

}  // namespace trdse::serve
