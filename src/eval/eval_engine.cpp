#include "eval/eval_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "eval/fault_injector.hpp"
#include "io/state_io.hpp"

namespace trdse::eval {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool allFinite(const linalg::Vector& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// min(base << attempt, cap), saturating: a shift past the bit width or past
/// the cap charges the cap.
std::size_t backoffFor(std::size_t base, std::size_t attempt,
                       std::size_t cap) {
  if (base == 0) return 0;
  if (attempt >= std::numeric_limits<std::size_t>::digits ||
      base > (cap >> attempt))
    return cap;
  return base << attempt;
}

/// Snap `raw` onto the grid of `space`: its grid indices and grid values.
void snapToGrid(const core::DesignSpace& space, const linalg::Vector& raw,
                std::vector<std::size_t>& indices, linalg::Vector& snapped) {
  const std::size_t dim = space.dim();
  assert(raw.size() == dim);
  indices.resize(dim);
  snapped.resize(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    indices[d] = space.nearestIndex(d, raw[d]);
    snapped[d] = space.gridValue(d, indices[d]);
  }
}
}  // namespace

void writeEvalStats(io::SectionWriter& w, const EvalStats& s) {
  w.u64(s.requests);
  w.u64(s.simulated);
  w.u64(s.cacheHits);
  w.u64(s.sharedHits);
  w.f64(s.backendSeconds);
  w.u64(s.attempts);
  w.u64(s.faults);
  w.u64(s.failures);
  w.u64(s.backoffUnits);
}

EvalStats readEvalStats(io::SectionReader& r) {
  EvalStats s;
  s.requests = r.u64();
  s.simulated = r.u64();
  s.cacheHits = r.u64();
  s.sharedHits = r.u64();
  s.backendSeconds = r.f64();
  s.attempts = r.u64();
  s.faults = r.u64();
  s.failures = r.u64();
  s.backoffUnits = r.u64();
  if (s.requests != s.simulated + s.cacheHits + s.sharedHits + s.failures)
    r.fail("stats partition broken: requests != simulated + cacheHits + "
           "sharedHits + failures");
  return s;
}

void writeFailureRecord(io::SectionWriter& w, const FailureRecord& f) {
  w.boolean(f.valid);
  w.u64(f.request);
  w.u64(f.cornerIndex);
  w.u8(static_cast<std::uint8_t>(f.cls));
  w.u64(f.attempts);
}

FailureRecord readFailureRecord(io::SectionReader& r) {
  FailureRecord f;
  f.valid = r.boolean();
  f.request = r.u64();
  f.cornerIndex = r.u64();
  const std::uint8_t cls = r.u8();
  if (cls > static_cast<std::uint8_t>(sim::FaultClass::kNonFinite))
    r.fail("unknown fault class " + std::to_string(cls));
  f.cls = static_cast<sim::FaultClass>(cls);
  f.attempts = r.u64();
  // The engine records the class of a failed request, never kNone.
  if (f.valid && f.cls == sim::FaultClass::kNone)
    r.fail("first-failure record with no fault class");
  return f;
}

MeetsSpecFn makeMeetsSpec(core::ValueFunction value) {
  return [value = std::move(value)](const core::EvalResult& r) {
    return r.ok && value.satisfied(r.measurements);
  };
}

EvalEngine::EvalEngine(std::shared_ptr<const EvalBackend> backend,
                       core::DesignSpace space,
                       std::vector<sim::PvtCorner> corners,
                       MeetsSpecFn meetsSpec)
    : backend_(std::move(backend)),
      space_(std::move(space)),
      corners_(std::move(corners)),
      meetsSpec_(std::move(meetsSpec)) {
  assert(backend_ != nullptr);
  assert(!corners_.empty());
}

EvalEngine::EvalEngine(const core::SizingProblem& problem)
    : EvalEngine(std::make_shared<CallbackBackend>(
                     problem.evaluate, "problem:" + problem.name,
                     problem.evaluateBatch),
                 problem.space, problem.corners,
                 makeMeetsSpec(core::ValueFunction(problem.measurementNames,
                                                   problem.specs))) {}

void EvalEngine::resetAccounting() {
  ledger_ = pvt::EdaLedger{};
  stats_ = EvalStats{};
  firstFailure_ = FailureRecord{};
}

void EvalEngine::injectFaults(std::shared_ptr<const sim::FaultPlan> plan,
                              std::string_view scope) {
  if (!plan)
    throw std::invalid_argument("EvalEngine::injectFaults: plan is null");
  if (stats_.requests != 0)
    throw std::logic_error(
        "EvalEngine::injectFaults: must be configured before the first "
        "request");
  // A plan with all-zero rates never injects; skip the wrapper so clean
  // configurations run the exact pre-fault code path.
  if (!plan->enabled()) return;
  backend_ = std::make_shared<FaultInjector>(backend_, std::move(plan), scope);
}

void EvalEngine::setBackend(std::shared_ptr<const EvalBackend> backend) {
  if (!backend)
    throw std::invalid_argument("EvalEngine::setBackend: backend is null");
  if (stats_.requests != 0)
    throw std::logic_error(
        "EvalEngine::setBackend: must be configured before the first "
        "request");
  backend_ = std::move(backend);
}

void EvalEngine::attachSharedCache(std::shared_ptr<SharedEvalCache> shared,
                                   std::string_view scope) {
  if (stats_.requests != 0)
    throw std::logic_error(
        "EvalEngine::attachSharedCache: must be attached before the first "
        "request");
  shared_ = std::move(shared);
  sharedScope_ = shared_ ? shared_->scopeId(scope) : 0;
  unpublished_.clear();
}

std::vector<PublishEntry> EvalEngine::drainPublishJournal() {
  std::vector<PublishEntry> out;
  if (shared_ == nullptr) return out;
  out.reserve(unpublished_.size());
  // Only keys still present in the local memo ship (an entry could in
  // principle have been evicted), in journal order.
  for (const EvalKey& key : unpublished_) {
    if (const core::EvalResult* r = cache_.find(key)) out.push_back({key, *r});
  }
  unpublished_.clear();
  return out;
}

void EvalEngine::saveState(io::SectionWriter& w) const {
  assert(ahead_.empty() && "lookahead results outlived their step");
  // Memo, sorted by (corner, grid indices) — unordered_map iteration order
  // is not stable, and deterministic bytes make save→load→save idempotent.
  std::vector<const std::pair<const EvalKey, core::EvalResult>*> entries;
  entries.reserve(cache_.size());
  for (const auto& kv : cache_.entries()) entries.push_back(&kv);
  std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
    if (a->first.cornerIndex != b->first.cornerIndex)
      return a->first.cornerIndex < b->first.cornerIndex;
    return a->first.indices < b->first.indices;
  });
  w.u64(entries.size());
  for (const auto* kv : entries) {
    w.indexVec(kv->first.indices);
    w.u64(kv->first.cornerIndex);
    io::writeEvalResult(w, kv->second);
  }
  io::writeLedger(w, ledger_);
  writeEvalStats(w, stats_);
  writeFailureRecord(w, firstFailure_);
}

void EvalEngine::restoreState(io::SectionReader& r) {
  cache_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    EvalKey key;
    key.indices = r.indexVec();
    key.cornerIndex = r.u64();
    if (key.indices.size() != space_.dim())
      r.fail("cache key dimensionality " + std::to_string(key.indices.size()) +
             " does not match the design space (" +
             std::to_string(space_.dim()) + ")");
    if (key.cornerIndex >= corners_.size())
      r.fail("cache key corner index " + std::to_string(key.cornerIndex) +
             " out of range (" + std::to_string(corners_.size()) +
             " corners)");
    core::EvalResult result = io::readEvalResult(r);
    // The live engine never memoizes poison; a snapshot claiming otherwise
    // is corrupt (or tampered) and must not seed a cache.
    if (result.failure != sim::FaultClass::kNone)
      r.fail("memoized result carries fault class '" +
             std::string(sim::faultClassName(result.failure)) + "'");
    if (result.ok && !allFinite(result.measurements))
      r.fail("memoized result carries non-finite measurements");
    cache_.insert(std::move(key), std::move(result));
  }
  io::readLedger(r, ledger_);
  stats_ = readEvalStats(r);
  firstFailure_ = readFailureRecord(r);
  // The publish journal is deliberately not persisted: results simulated
  // before a snapshot re-enter the shared cache only by being re-requested,
  // never as stale cross-run publishes.
  unpublished_.clear();
}

void EvalEngine::runBatchWithRetry(std::size_t begin, std::size_t count) {
  const RetryPolicy& retry = retry_;
  const std::size_t maxAttempts = std::max<std::size_t>(1, retry.maxAttempts);
  // Lanes still awaiting a clean result, as offsets into the chunk.
  std::vector<std::size_t> active(count);
  for (std::size_t i = 0; i < count; ++i) active[i] = i;
  std::vector<const linalg::Vector*> sizes;
  std::vector<sim::PvtCorner> corners;
  std::vector<EvalContext> contexts;
  std::vector<core::EvalResult> attemptResults;
  for (std::size_t attempt = 0; attempt < maxAttempts && !active.empty();
       ++attempt) {
    sizes.clear();
    corners.clear();
    contexts.clear();
    for (const std::size_t lane : active) {
      const MissRef& ref = missRefs_[pending_[begin + lane]];
      sizes.push_back(ref.sizes);
      corners.push_back(corners_[ref.cornerIndex]);
      EvalContext ctx;
      ctx.indices = ref.indices;
      ctx.cornerIndex = ref.cornerIndex;
      ctx.attempt = attempt;
      contexts.push_back(ctx);
    }
    attemptResults.assign(active.size(), core::EvalResult{});
    const auto t0 = std::chrono::steady_clock::now();
    backend_->evaluateBatch(sizes.data(), corners.data(), contexts.data(),
                            attemptResults.data(), active.size());
    const double elapsed = secondsSince(t0);
    missTrace_[pending_[begin]].seconds += elapsed;
    // Classify each lane: the backend's own verdict first, then the
    // wall-clock deadline (the call's elapsed time, outside the determinism
    // contract like every wall-clock classification), then the finiteness
    // guard. The guard runs even without any injector — a real backend
    // emitting NaN must be treated as a fault, not memoized and spread
    // through shared caches.
    std::size_t kept = 0;  // faulted lanes compact to the front of `active`
    for (std::size_t p = 0; p < active.size(); ++p) {
      const std::size_t lane = active[p];
      core::EvalResult& r = attemptResults[p];
      sim::FaultClass cls = r.failure;
      if (cls == sim::FaultClass::kNone && retry.timeoutSeconds > 0.0 &&
          elapsed > retry.timeoutSeconds)
        cls = sim::FaultClass::kTimeout;
      if (cls == sim::FaultClass::kNone && r.ok && !allFinite(r.measurements))
        cls = sim::FaultClass::kNonFinite;
      MissTrace& trace = missTrace_[pending_[begin + lane]];
      core::EvalResult& out = *missRefs_[pending_[begin + lane]].out;
      if (cls == sim::FaultClass::kNone) {
        trace.retries = static_cast<std::uint32_t>(attempt);
        out = std::move(r);
      } else if (attempt + 1 < maxAttempts) {
        // Charge deterministic backoff for the retry about to happen. Units
        // are ledger bookkeeping, not sleeps: the cost model stays bitwise
        // reproducible and tests stay fast. The per-request sum saturates.
        trace.backoff += static_cast<std::uint32_t>(std::min<std::size_t>(
            backoffFor(retry.backoffBase, attempt, retry.backoffCap),
            std::numeric_limits<std::uint32_t>::max() - trace.backoff));
        active[kept++] = lane;
      } else {
        trace.retries = static_cast<std::uint32_t>(attempt);
        core::EvalResult failed;
        failed.ok = false;
        failed.failure = cls;
        out = std::move(failed);
      }
    }
    active.resize(kept);
  }
}

void EvalEngine::dispatchMisses() {
  const std::size_t nLanes = pending_.size();
  const std::size_t width = std::max<std::size_t>(1, backend_->batchWidth());
  const std::size_t chunks = (nLanes + width - 1) / width;
  common::parallelForOn(common::ThreadPool::current(), chunks,
                        [&](std::size_t t) {
                          const std::size_t begin = t * width;
                          runBatchWithRetry(begin,
                                            std::min(width, nLanes - begin));
                        });
  // Every lane evaluation counts when it runs, lookahead lanes included;
  // the rest of a lane's accounting waits until a request consumes it.
  for (const std::size_t i : pending_) {
    stats_.attempts += missTrace_[i].retries + 1;
    stats_.backendSeconds += missTrace_[i].seconds;
  }
}

void EvalEngine::accountRequest(std::size_t cornerIndex, pvt::BlockKind kind,
                                const core::EvalResult& result, bool cached,
                                bool shared, bool isMiss,
                                const MissTrace& trace) {
  const bool failed = result.failure != sim::FaultClass::kNone;
  ++stats_.requests;
  if (isMiss) {
    stats_.backoffUnits += trace.backoff;
    stats_.faults += trace.retries + (failed ? 1 : 0);
  }
  if (failed) {
    ++stats_.failures;
    if (!firstFailure_.valid) {
      firstFailure_.valid = true;
      firstFailure_.request = stats_.requests - 1;
      firstFailure_.cornerIndex = cornerIndex;
      firstFailure_.cls = result.failure;
      firstFailure_.attempts = trace.retries + 1;
    }
  } else if (shared) {
    ++stats_.sharedHits;
  } else if (cached) {
    ++stats_.cacheHits;
  } else {
    ++stats_.simulated;
  }
  const bool meets = !failed && (meetsSpec_ ? meetsSpec_(result) : false);
  ledger_.record(cornerIndex, kind, meets, cached, failed, trace.retries,
                 trace.backoff);
}

bool EvalEngine::ledgerMatchesStats() const {
  return ledger_.totalBlocks() == stats_.requests &&
         ledger_.cachedBlocks() == stats_.cacheHits + stats_.sharedHits &&
         ledger_.failedBlocks() == stats_.failures &&
         ledger_.retryAttempts() == stats_.faults - stats_.failures &&
         ledger_.backoffUnits() == stats_.backoffUnits;
}

void EvalEngine::queueLookahead(const Lookahead& next, std::size_t room) {
  aheadSnaps_.resize(room);
  aheadKeys_.resize(room);
  aheadResults_.assign(room, core::EvalResult{});
  linalg::Vector raw;
  std::size_t lanes = 0;
  for (std::size_t k = 0; lanes < room; ++k) {
    std::size_t corner = 0;
    if (!next(k, raw, corner)) break;
    assert(corner < corners_.size());
    EvalKey& key = aheadKeys_[lanes];
    snapToGrid(space_, raw, key.indices, aheadSnaps_[lanes]);
    key.cornerIndex = corner;
    // Memo-only probe: the shared cache's counters must not see requests
    // nobody has made yet.
    if (cache_.find(key) != nullptr || ahead_.count(key) != 0) continue;
    const bool queued =
        std::any_of(missRefs_.begin(), missRefs_.end(), [&](const MissRef& m) {
          return m.cornerIndex == corner && *m.indices == key.indices;
        });
    if (queued) continue;
    pending_.push_back(missRefs_.size());
    missRefs_.push_back({kNone, &aheadResults_[lanes], &aheadSnaps_[lanes],
                         &key.indices, corner});
    ++lanes;
  }
}

void EvalEngine::evalRequests(const linalg::Vector& point,
                              const std::size_t* cornerIdx, std::size_t nc,
                              pvt::BlockKind kind, core::EvalResult* results,
                              const Lookahead& next) {
  if (nc == 0) return;

  // Snap once up front, so the simulated point always matches the cache key
  // (callers may pass raw or snapped values). The snapped sizing and index
  // list stay put for the whole call because queued miss lanes point into
  // them.
  snapToGrid(space_, point, key_.indices, snap_);

  // ---- Probe the memos (and collapse repeated corners) serially.
  missRefs_.clear();
  hitFlags_.assign(nc, 0);
  sharedFlags_.assign(nc, 0);
  dupOf_.assign(nc, kNone);
  for (std::size_t c = 0; c < nc; ++c) {
    key_.cornerIndex = cornerIdx[c];
    if (const core::EvalResult* hit = cache_.find(key_)) {
      results[c] = *hit;
      hitFlags_[c] = 1;
      continue;
    }
    // Local miss: the cross-job cache may already hold the result. Copy a
    // shared hit into the local memo, so a repeat of the key inside this
    // call (or later) becomes a plain local hit.
    if (shared_ != nullptr && shared_->find(sharedScope_, key_, results[c])) {
      cache_.insert(key_, results[c]);
      hitFlags_[c] = 1;
      sharedFlags_[c] = 1;
      continue;
    }
    // A repeated corner can only repeat an earlier *miss* (had the key been
    // cached, both requests would have hit).
    for (const MissRef& m : missRefs_) {
      if (m.cornerIndex == cornerIdx[c]) {
        dupOf_[c] = m.slot;
        break;
      }
    }
    if (dupOf_[c] != kNone) continue;
    missRefs_.push_back({c, &results[c], &snap_, &key_.indices, cornerIdx[c]});
  }

  // ---- A miss simulated ahead takes its buffered result and retry trace;
  // the rest go to the backend, their last lane chunk filled with `next`'s
  // lookahead lanes. Results land in per-request slots.
  const std::size_t nMiss = missRefs_.size();
  missTrace_.assign(nMiss, MissTrace{});
  pending_.clear();
  for (std::size_t i = 0; i < nMiss; ++i) {
    const auto it = ahead_.empty()
                        ? ahead_.end()
                        : ahead_.find({key_.indices, missRefs_[i].cornerIndex});
    if (it == ahead_.end()) {
      pending_.push_back(i);
      continue;
    }
    *missRefs_[i].out = std::move(it->second.result);
    missTrace_[i] = it->second.trace;
    ahead_.erase(it);
  }
  if (!pending_.empty()) {
    const std::size_t width = std::max<std::size_t>(1, backend_->batchWidth());
    const std::size_t room = (width - pending_.size() % width) % width;
    if (next && room != 0) {
      queueLookahead(next, room);
      missTrace_.resize(missRefs_.size());
    }
    dispatchMisses();
    for (std::size_t i = nMiss; i < missRefs_.size(); ++i)
      ahead_.emplace(EvalKey{*missRefs_[i].indices, missRefs_[i].cornerIndex},
                     Ahead{std::move(*missRefs_[i].out), missTrace_[i]});
    missRefs_.resize(nMiss);
  }

  // ---- Merge and account after the join, in request order: cache inserts,
  // ledger blocks, and counters are then identical for any thread count,
  // and a miss taken from the lookahead buffer accounts exactly like one
  // simulated now.
  std::size_t cursor = 0;  // missRefs_ slots ascend with the request slot
  for (std::size_t slot = 0; slot < nc; ++slot) {
    const bool isMiss =
        cursor < missRefs_.size() && missRefs_[cursor].slot == slot;
    const MissTrace trace = isMiss ? missTrace_[cursor++] : MissTrace{};
    const std::size_t corner = cornerIdx[slot];
    if (dupOf_[slot] != kNone) results[slot] = results[dupOf_[slot]];
    const bool failed = results[slot].failure != sim::FaultClass::kNone;
    // A failed request is never "cached": poison enters no memo, and a
    // duplicate of a failed miss shares its failure, not a cache hit.
    const bool cached =
        !failed && (hitFlags_[slot] != 0 || dupOf_[slot] != kNone);
    if (isMiss && !failed) {
      cache_.insert({key_.indices, corner}, results[slot]);
      if (shared_ != nullptr) unpublished_.push_back({key_.indices, corner});
    }
    accountRequest(corner, kind, results[slot], cached,
                   sharedFlags_[slot] != 0, isMiss, trace);
  }
  assert(stats_.requests == stats_.simulated + stats_.cacheHits +
                                stats_.sharedHits + stats_.failures);
  assert(ledgerMatchesStats());
}

std::vector<core::EvalResult> EvalEngine::evalBatch(
    const std::vector<std::size_t>& cornerIdx, const linalg::Vector& sizes,
    pvt::BlockKind kind, const Lookahead& next) {
  std::vector<core::EvalResult> results(cornerIdx.size());
  evalRequests(sizes, cornerIdx.data(), cornerIdx.size(), kind,
               results.data(), next);
  return results;
}

core::EvalResult EvalEngine::evalOne(std::size_t cornerIdx,
                                     const linalg::Vector& sizes,
                                     pvt::BlockKind kind,
                                     const Lookahead& next) {
  core::EvalResult result;
  evalRequests(sizes, &cornerIdx, 1, kind, &result, next);
  return result;
}

}  // namespace trdse::eval
