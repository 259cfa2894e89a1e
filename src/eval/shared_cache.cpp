#include "eval/shared_cache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/state_io.hpp"
#include "sim/fault.hpp"

namespace trdse::eval {

namespace {

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SharedEvalCache::SharedEvalCache(std::size_t shards)
    : shards_(roundUpPow2(shards == 0 ? 1 : shards)) {}

std::size_t SharedEvalCache::scopeId(std::string_view scope) {
  const std::lock_guard<std::mutex> lock(scopeMu_);
  for (std::size_t i = 0; i < scopes_.size(); ++i)
    if (scopes_[i] == scope) return i;
  scopes_.emplace_back(scope);
  return scopes_.size() - 1;
}

std::vector<std::string> SharedEvalCache::scopeNames() const {
  const std::lock_guard<std::mutex> lock(scopeMu_);
  return scopes_;
}

bool SharedEvalCache::find(std::size_t scope, const EvalKey& key,
                           core::EvalResult& out) {
  const ScopedKey sk{scope, key};
  Shard& shard = shardOf(sk);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(sk);
  if (it == shard.map.end()) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  out = it->second;
  return true;
}

void SharedEvalCache::insert(std::size_t scope, const EvalKey& key,
                             core::EvalResult result) {
  if (result.failure != sim::FaultClass::kNone)
    throw std::invalid_argument(
        "SharedEvalCache::insert: refusing to publish a result with fault "
        "class '" +
        std::string(sim::faultClassName(result.failure)) + "'");
  if (result.ok &&
      std::any_of(result.measurements.begin(), result.measurements.end(),
                  [](double x) { return !std::isfinite(x); }))
    throw std::invalid_argument(
        "SharedEvalCache::insert: refusing to publish non-finite "
        "measurements");
  ScopedKey sk{scope, key};
  Shard& shard = shardOf(sk);
  const std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.inserts;
  shard.map.insert_or_assign(std::move(sk), std::move(result));
}

std::size_t SharedEvalCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

SharedEvalCache::ShardCounters SharedEvalCache::shardStats(
    std::size_t shard) const {
  const Shard& s = shards_[shard];
  const std::lock_guard<std::mutex> lock(s.mu);
  return {s.hits, s.misses, s.inserts, s.map.size()};
}

void SharedEvalCache::addProbes(std::size_t shard, std::size_t hits,
                                std::size_t misses) {
  Shard& s = shards_.at(shard);
  const std::lock_guard<std::mutex> lock(s.mu);
  s.hits += hits;
  s.misses += misses;
}

std::size_t SharedEvalCache::approxScopeBytes(std::size_t scope) const {
  // Per-entry estimate: the stored EvalResult's measurement vector, the key's
  // grid-index vector, and a fixed allowance for the map node + EvalResult
  // scalars. Precision does not matter — the byte budget is a rough dial —
  // but determinism does, so only logical contents feed the sum.
  constexpr std::size_t kEntryOverhead = 96;
  std::size_t bytes = 0;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [k, v] : s.map) {
      if (k.scope != scope) continue;
      bytes += kEntryOverhead + k.key.indices.size() * sizeof(std::size_t) +
               v.measurements.size() * sizeof(double);
    }
  }
  return bytes;
}

std::size_t SharedEvalCache::approxBytes() const {
  std::size_t bytes = 0;
  const std::size_t scopes = scopeNames().size();
  for (std::size_t s = 0; s < scopes; ++s) bytes += approxScopeBytes(s);
  return bytes;
}

std::size_t SharedEvalCache::entriesInScope(std::size_t scope) const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [k, v] : s.map)
      if (k.scope == scope) ++n;
  }
  return n;
}

std::size_t SharedEvalCache::evictScope(std::size_t scope) {
  std::size_t dropped = 0;
  for (Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    for (auto it = s.map.begin(); it != s.map.end();) {
      if (it->first.scope == scope) {
        it = s.map.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

void SharedEvalCache::saveState(io::SectionWriter& w) const {
  w.u64(shards_.size());
  {
    const std::lock_guard<std::mutex> lock(scopeMu_);
    w.u64(scopes_.size());
    for (const std::string& s : scopes_) w.str(s);
  }
  // Entries sorted by (scope, corner, indices): unordered_map iteration
  // order is not stable, and the journal's bytes must be a pure function of
  // the cache's logical contents.
  std::vector<std::pair<ScopedKey, const core::EvalResult*>> entries;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [k, v] : s.map) entries.emplace_back(k, &v);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.first.scope != b.first.scope)
                return a.first.scope < b.first.scope;
              if (a.first.key.cornerIndex != b.first.key.cornerIndex)
                return a.first.key.cornerIndex < b.first.key.cornerIndex;
              return a.first.key.indices < b.first.key.indices;
            });
  w.u64(entries.size());
  for (const auto& [k, v] : entries) {
    w.u64(k.scope);
    w.indexVec(k.key.indices);
    w.u64(k.key.cornerIndex);
    io::writeEvalResult(w, *v);
  }
  writeCounterTriples(w);
}

void SharedEvalCache::saveCounters(io::SectionWriter& w) const {
  w.u64(shards_.size());
  writeCounterTriples(w);
}

void SharedEvalCache::restoreCounters(io::SectionReader& r) {
  const std::uint64_t shardCount = r.u64();
  if (shardCount != shards_.size())
    r.fail("shared cache counters cover " + std::to_string(shardCount) +
           " shards but this cache has " + std::to_string(shards_.size()));
  readCounterTriples(r);
}

void SharedEvalCache::writeCounterTriples(io::SectionWriter& w) const {
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.inserts);
  }
}

void SharedEvalCache::readCounterTriples(io::SectionReader& r) {
  // Read every triple before installing any, so a short section leaves the
  // counters as they were.
  std::vector<std::uint64_t> values(3 * shards_.size());
  for (std::uint64_t& v : values) v = r.u64();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    const std::lock_guard<std::mutex> lock(s.mu);
    s.hits = values[3 * i];
    s.misses = values[3 * i + 1];
    s.inserts = values[3 * i + 2];
  }
}

void SharedEvalCache::restoreState(io::SectionReader& r) {
  const std::uint64_t shardCount = r.u64();
  if (shardCount != shards_.size())
    r.fail("shared cache has " + std::to_string(shardCount) +
           " shards in the snapshot but " + std::to_string(shards_.size()) +
           " in this run (per-shard counters cannot be remapped)");
  const std::uint64_t scopeCount = r.u64();
  std::vector<std::string> scopes;
  scopes.reserve(scopeCount);
  for (std::uint64_t i = 0; i < scopeCount; ++i) scopes.push_back(r.str());
  const std::uint64_t entryCount = r.u64();
  for (Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
    s.hits = s.misses = s.inserts = 0;
  }
  for (std::uint64_t i = 0; i < entryCount; ++i) {
    ScopedKey sk;
    sk.scope = r.u64();
    if (sk.scope >= scopeCount)
      r.fail("entry scope id " + std::to_string(sk.scope) +
             " out of range (" + std::to_string(scopeCount) + " scopes)");
    sk.key.indices = r.indexVec();
    sk.key.cornerIndex = r.u64();
    core::EvalResult result = io::readEvalResult(r);
    if (result.failure != sim::FaultClass::kNone)
      r.fail("shared cache entry carries fault class '" +
             std::string(sim::faultClassName(result.failure)) + "'");
    if (result.ok &&
        std::any_of(result.measurements.begin(), result.measurements.end(),
                    [](double x) { return !std::isfinite(x); }))
      r.fail("shared cache entry carries non-finite measurements");
    Shard& shard = shardOf(sk);
    const std::lock_guard<std::mutex> lock(shard.mu);
    // Bypass insert(): its counter bump would double-count — the journaled
    // per-shard counters below already include these entries' inserts.
    shard.map.insert_or_assign(std::move(sk), std::move(result));
  }
  readCounterTriples(r);
  {
    const std::lock_guard<std::mutex> lock(scopeMu_);
    scopes_ = std::move(scopes);
  }
}

SharedEvalCache::ShardCounters SharedEvalCache::totals() const {
  ShardCounters t;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardCounters s = shardStats(i);
    t.hits += s.hits;
    t.misses += s.misses;
    t.inserts += s.inserts;
    t.entries += s.entries;
  }
  return t;
}

}  // namespace trdse::eval
