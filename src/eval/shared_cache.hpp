// Cross-job evaluation memo — the thread-safe sibling of EvalCache.
//
// Concurrent orchestrator jobs sizing the *same* circuit keep re-asking for
// the same (snapped grid point, corner) simulations: baseline comparisons run
// several strategies over one problem, and seeds differ while the grid does
// not. The SharedEvalCache lets every job's EvalEngine serve such requests
// from work another job already paid for.
//
// Thread safety comes from striping: entries hash onto a power-of-two number
// of shards, each guarded by its own mutex, so concurrent jobs probing
// different keys rarely contend. Entries are namespaced by a *scope* id
// (registered per circuit/problem name), so two circuits that happen to share
// grid indices can never collide.
//
// Determinism contract (docs/ORCHESTRATION.md): the cache itself is a plain
// concurrent map — *when* an entry becomes visible is up to the caller. The
// orch::Scheduler only inserts at round barriers (the entries each engine's
// EvalEngine::drainPublishJournal returned, in job order), so lookups during
// a round see a state that depends on the round number alone, never on
// thread interleaving; per-job hit/miss accounting is then bitwise identical
// for any scheduler thread or worker count.
// Backends are pure, so a served entry is bitwise identical to re-simulating.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "eval/eval_cache.hpp"

namespace trdse::io {
class SectionReader;
class SectionWriter;
}  // namespace trdse::io

namespace trdse::eval {

/// Sharded (striped-mutex) cross-job memo: (scope, EvalKey) -> EvalResult.
class SharedEvalCache {
 public:
  /// @param shards  stripe count; rounded up to a power of two, minimum 1.
  explicit SharedEvalCache(std::size_t shards = 16);

  SharedEvalCache(const SharedEvalCache&) = delete;
  SharedEvalCache& operator=(const SharedEvalCache&) = delete;

  /// Id of the named scope (a circuit/problem name), registering it on first
  /// use. Jobs evaluating the same circuit must use the same scope string to
  /// share results; distinct scopes never collide.
  std::size_t scopeId(std::string_view scope);

  /// Registered scope names, indexed by scope id.
  std::vector<std::string> scopeNames() const;

  /// Copy the entry for (scope, key) into `out`; returns whether it existed.
  /// Tally lands on the owning shard's hit/miss counters either way.
  bool find(std::size_t scope, const EvalKey& key, core::EvalResult& out);

  /// Store a result (insert_or_assign: publishers only ever re-insert the
  /// identical result, backends being pure — see EvalCache::insert).
  /// Defense in depth against cross-job poisoning: a faulty result (failure
  /// != kNone) or an ok result with non-finite measurements throws
  /// std::invalid_argument — one job's fault must never become another job's
  /// "cached" truth, even if an engine-side guard regresses.
  void insert(std::size_t scope, const EvalKey& key, core::EvalResult result);

  /// Number of stripes (power of two).
  std::size_t shardCount() const { return shards_.size(); }
  /// Total entries across all shards (locks each shard in turn).
  std::size_t size() const;

  /// Per-shard telemetry (hit/miss tallies from find(), entry count).
  struct ShardCounters {
    std::size_t hits = 0;     ///< find() calls that returned an entry
    std::size_t misses = 0;   ///< find() calls that found nothing
    std::size_t inserts = 0;  ///< insert() calls (including re-inserts)
    std::size_t entries = 0;  ///< distinct keys currently stored
  };
  /// Counters of one shard.
  ShardCounters shardStats(std::size_t shard) const;
  /// Counters summed over every shard.
  ShardCounters totals() const;
  /// Fold externally-tallied probe counters into one shard. The distributed
  /// coordinator merges each worker's mirror-cache hit/miss deltas here at
  /// round barriers; because shard assignment is a pure function of the key
  /// and sums are order-independent, the merged telemetry is bitwise
  /// identical to the in-process run's. Throws std::out_of_range on a shard
  /// index past shardCount().
  void addProbes(std::size_t shard, std::size_t hits, std::size_t misses);

  // ---- Eviction support (the serve daemon's persistent-cache byte budget;
  // docs/SERVICE.md). Scopes are the eviction granularity: a circuit's
  // entries only pay off together, so the daemon evicts whole
  // least-recently-used scopes when the persisted cache exceeds its budget.
  // The LRU ordering itself lives with the caller (the daemon touches scopes
  // at deterministic admission/round points) — keeping it out of find()
  // preserves the orchestrator's bitwise thread-count invariance.

  /// Approximate heap bytes of one scope's entries: measurement payloads,
  /// key index vectors, and a fixed per-entry overhead. A pure function of
  /// the stored entries, so budget decisions are deterministic.
  std::size_t approxScopeBytes(std::size_t scope) const;
  /// approxScopeBytes summed over every registered scope.
  std::size_t approxBytes() const;
  /// Entries currently stored under one scope.
  std::size_t entriesInScope(std::size_t scope) const;
  /// Drop every entry of `scope` (the scope name stays registered, so ids of
  /// other scopes are unaffected); returns the number of entries dropped.
  /// Hit/miss/insert tallies are history and keep counting.
  std::size_t evictScope(std::size_t scope);

  /// Serialize scopes, entries (sorted by scope, corner, indices — identical
  /// states produce identical bytes) and per-shard counters for the
  /// orchestrator's write-ahead journal. Not thread-safe against concurrent
  /// writers: call from the scheduler's round barrier only.
  void saveState(io::SectionWriter& w) const;
  /// Replace all scopes/entries/counters with state written by saveState.
  /// Counters are restored exactly (not recomputed), so a resumed run's
  /// shard telemetry continues the uninterrupted run's bitwise.
  void restoreState(io::SectionReader& r);

  /// Serialize the per-shard hit/miss/insert counters alone (shard count
  /// first) — the serve daemon's state log records them at every barrier
  /// without re-encoding the entries.
  void saveCounters(io::SectionWriter& w) const;
  /// Overwrite the per-shard counters with ones written by saveCounters;
  /// entries are untouched. Throws io::CheckpointError on a shard-count
  /// mismatch or a short section, before changing anything.
  void restoreCounters(io::SectionReader& r);

 private:
  /// Scope-qualified key (the map key of every shard).
  struct ScopedKey {
    std::size_t scope = 0;
    EvalKey key;
    bool operator==(const ScopedKey&) const = default;
  };
  struct ScopedKeyHash {
    std::size_t operator()(const ScopedKey& k) const {
      // Re-mix the EvalKey hash with the scope so scopes land on different
      // shards/buckets even for identical grid indices.
      std::uint64_t z = EvalKeyHash{}(k.key) + 0x9e3779b97f4a7c15ull +
                        static_cast<std::uint64_t>(k.scope);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ScopedKey, core::EvalResult, ScopedKeyHash> map;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t inserts = 0;
  };

  Shard& shardOf(const ScopedKey& k) {
    return shards_[ScopedKeyHash{}(k) & (shards_.size() - 1)];
  }

  /// Per-shard (hits, misses, inserts) triples, shard order — the tail of
  /// saveState's layout and the body of saveCounters'.
  void writeCounterTriples(io::SectionWriter& w) const;
  /// Read what writeCounterTriples wrote, then install it.
  void readCounterTriples(io::SectionReader& r);

  /// vector sized once at construction; Shard is neither movable nor copyable
  /// (mutex member), which is fine because the vector never grows.
  std::vector<Shard> shards_;

  mutable std::mutex scopeMu_;
  std::vector<std::string> scopes_;
};

}  // namespace trdse::eval
