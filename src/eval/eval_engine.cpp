#include "eval/eval_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

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
}  // namespace

MeetsSpecFn makeMeetsSpec(core::ValueFunction value) {
  return [value = std::move(value)](const core::EvalResult& r) {
    return r.ok && value.satisfied(r.measurements);
  };
}

EvalEngine::EvalEngine(std::shared_ptr<const EvalBackend> backend,
                       core::DesignSpace space,
                       std::vector<sim::PvtCorner> corners,
                       MeetsSpecFn meetsSpec, EvalEngineConfig config)
    : backend_(std::move(backend)),
      space_(std::move(space)),
      corners_(std::move(corners)),
      meetsSpec_(std::move(meetsSpec)),
      config_(config),
      pool_(config.threads) {
  assert(backend_ != nullptr);
  assert(!corners_.empty());
}

EvalEngine::EvalEngine(const core::SizingProblem& problem,
                       EvalEngineConfig config)
    : EvalEngine(std::make_shared<CallbackBackend>(
                     problem.evaluate, "problem:" + problem.name,
                     problem.evaluateBatch),
                 problem.space, problem.corners,
                 makeMeetsSpec(
                     core::ValueFunction(problem.measurementNames,
                                         problem.specs)),
                 config) {}

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

void EvalEngine::attachSharedCache(std::shared_ptr<SharedEvalCache> shared,
                                   std::string_view scope) {
  if (!config_.cacheEvals)
    throw std::logic_error(
        "EvalEngine::attachSharedCache: requires cacheEvals (the local memo "
        "backs the publish journal)");
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
  w.u64(stats_.requests);
  w.u64(stats_.simulated);
  w.u64(stats_.cacheHits);
  w.u64(stats_.sharedHits);
  w.f64(stats_.backendSeconds);
  w.u64(stats_.attempts);
  w.u64(stats_.faults);
  w.u64(stats_.failures);
  w.u64(stats_.backoffUnits);
  w.boolean(firstFailure_.valid);
  w.u64(firstFailure_.request);
  w.u64(firstFailure_.cornerIndex);
  w.u8(static_cast<std::uint8_t>(firstFailure_.cls));
  w.u64(firstFailure_.attempts);
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
  stats_ = EvalStats{};
  firstFailure_ = FailureRecord{};
  stats_.requests = r.u64();
  stats_.simulated = r.u64();
  stats_.cacheHits = r.u64();
  stats_.sharedHits = r.u64();
  stats_.backendSeconds = r.f64();
  // Fault counters and the first-failure record arrived with container
  // format version 2; version-1 snapshots could only describe clean runs,
  // which the zeroed defaults state exactly.
  if (r.version() >= 2) {
    stats_.attempts = r.u64();
    stats_.faults = r.u64();
    stats_.failures = r.u64();
    stats_.backoffUnits = r.u64();
    firstFailure_.valid = r.boolean();
    firstFailure_.request = r.u64();
    firstFailure_.cornerIndex = r.u64();
    const std::uint8_t cls = r.u8();
    if (cls > static_cast<std::uint8_t>(sim::FaultClass::kNonFinite))
      r.fail("unknown fault class " + std::to_string(cls));
    firstFailure_.cls = static_cast<sim::FaultClass>(cls);
    firstFailure_.attempts = r.u64();
    if (firstFailure_.valid && firstFailure_.cls == sim::FaultClass::kNone)
      r.fail("first-failure record with no fault class");
    if (stats_.requests !=
        stats_.simulated + stats_.cacheHits + stats_.sharedHits +
            stats_.failures)
      r.fail("stats partition broken: requests != simulated + cacheHits + "
             "sharedHits + failures");
  }
  // The publish journal is deliberately not persisted: results simulated
  // before a snapshot re-enter the shared cache only by being re-requested,
  // never as stale cross-run publishes.
  unpublished_.clear();
}

void EvalEngine::runBatchWithRetry(core::EvalResult* results,
                                   std::size_t begin, std::size_t count) {
  const RetryPolicy& retry = config_.retry;
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
      const MissRef& ref = missRefs_[begin + lane];
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
    missTrace_[begin].seconds += elapsed;
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
      MissTrace& trace = missTrace_[begin + lane];
      core::EvalResult& out = results[missRefs_[begin + lane].slot];
      if (cls == sim::FaultClass::kNone) {
        trace.retries = static_cast<std::uint32_t>(attempt);
        out = std::move(r);
      } else if (attempt + 1 < maxAttempts) {
        // Charge deterministic backoff for the retry about to happen. Units
        // are ledger bookkeeping, not sleeps: the cost model stays bitwise
        // reproducible and tests stay fast.
        trace.backoff += static_cast<std::uint32_t>(
            std::min(retry.backoffBase << attempt, retry.backoffCap));
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

void EvalEngine::dispatchMisses(core::EvalResult* results) {
  const std::size_t nMiss = missRefs_.size();
  missTrace_.assign(nMiss, MissTrace{});
  const std::size_t width = std::max<std::size_t>(1, backend_->batchWidth());
  const std::size_t chunks = (nMiss + width - 1) / width;
  // Sampled per dispatch, not per engine lifetime: growth from other
  // engines' dispatches between two of ours never lands in our stats.
  const sim::SimPhaseTotals before = sim::simPhaseTotals();
  pool_.parallelFor(chunks, [&](std::size_t t) {
    const std::size_t begin = t * width;
    runBatchWithRetry(results, begin, std::min(width, nMiss - begin));
  });
  for (const MissTrace& t : missTrace_) stats_.backendSeconds += t.seconds;
  harvestSimPhases(before);
}

void EvalEngine::harvestSimPhases(const sim::SimPhaseTotals& before) {
  const sim::SimPhaseTotals now = sim::simPhaseTotals();
  stats_.simDeviceEvalNs += now.deviceEvalNs - before.deviceEvalNs;
  stats_.simStampNs += now.stampNs - before.stampNs;
  stats_.simFactorNs += now.factorNs - before.factorNs;
  stats_.simSolveNs += now.solveNs - before.solveNs;
}

void EvalEngine::accountRequest(std::size_t cornerIndex, pvt::BlockKind kind,
                                const core::EvalResult& result, bool cached,
                                bool shared, bool isMiss,
                                const MissTrace& trace) {
  const bool failed = result.failure != sim::FaultClass::kNone;
  ++stats_.requests;
  if (isMiss) {
    stats_.attempts += trace.retries + 1;
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
  if (config_.recordLedger) {
    const bool meets = !failed && (meetsSpec_ ? meetsSpec_(result) : false);
    ledger_.record(cornerIndex, kind, meets, cached, failed, trace.retries,
                   trace.backoff);
  }
}

void EvalEngine::evalRequests(const linalg::Vector* points, std::size_t np,
                              const std::size_t* cornerIdx, std::size_t nc,
                              pvt::BlockKind kind,
                              core::EvalResult* results) {
  const std::size_t n = np * nc;
  if (n == 0) return;

  // Snap every point once up front, so the simulated point always matches
  // the cache key (callers may pass raw or snapped values). The snapped
  // sizings and index lists stay put for the whole call because queued miss
  // lanes point into them.
  const std::size_t dim = space_.dim();
  snaps_.resize(np);
  keys_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    assert(points[p].size() == dim);
    snaps_[p].resize(dim);
    keys_[p].indices.resize(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t idx = space_.nearestIndex(d, points[p][d]);
      keys_[p].indices[d] = idx;
      snaps_[p][d] = space_.gridValue(d, idx);
    }
  }

  // ---- Probe the memos (and collapse in-call duplicates) serially,
  // point-major.
  missRefs_.clear();
  hitFlags_.assign(n, 0);
  sharedFlags_.assign(n, 0);
  dupOf_.assign(n, kNone);
  for (std::size_t p = 0; p < np; ++p) {
    EvalKey& key = keys_[p];
    for (std::size_t c = 0; c < nc; ++c) {
      const std::size_t slot = p * nc + c;
      if (config_.cacheEvals) {
        key.cornerIndex = cornerIdx[c];
        if (const core::EvalResult* hit = cache_.find(key)) {
          results[slot] = *hit;
          hitFlags_[slot] = 1;
          continue;
        }
        // Local miss: the cross-job cache may already hold the result. Copy
        // a shared hit into the local memo, so a repeat of the key inside
        // this call (or later) becomes a plain local hit.
        if (shared_ != nullptr &&
            shared_->find(sharedScope_, key, results[slot])) {
          cache_.insert({key.indices, cornerIdx[c]}, results[slot]);
          hitFlags_[slot] = 1;
          sharedFlags_[slot] = 1;
          continue;
        }
        // A duplicate key can only repeat an earlier *miss* (had the key
        // been cached, both requests would have hit). Points from different
        // raw sizings can snap to the same grid cell.
        for (const MissRef& m : missRefs_) {
          if (m.cornerIndex == cornerIdx[c] && *m.indices == key.indices) {
            dupOf_[slot] = m.slot;
            break;
          }
        }
        if (dupOf_[slot] != kNone) continue;
      }
      missRefs_.push_back({slot, &snaps_[p], &key.indices, cornerIdx[c]});
    }
  }

  // ---- Fan the real simulations out; results land in per-request slots.
  if (!missRefs_.empty()) dispatchMisses(results);

  // ---- Merge and account after the join, in request order: cache inserts,
  // ledger blocks, and counters are then identical for any thread count.
  std::size_t cursor = 0;  // missRefs_ slots ascend with the request slot
  for (std::size_t slot = 0; slot < n; ++slot) {
    const bool isMiss =
        cursor < missRefs_.size() && missRefs_[cursor].slot == slot;
    const MissTrace trace = isMiss ? missTrace_[cursor++] : MissTrace{};
    const std::size_t corner = cornerIdx[slot % nc];
    if (dupOf_[slot] != kNone) results[slot] = results[dupOf_[slot]];
    const bool failed = results[slot].failure != sim::FaultClass::kNone;
    // A failed request is never "cached": poison enters no memo, and a
    // duplicate of a failed miss shares its failure, not a cache hit.
    const bool cached =
        !failed && (hitFlags_[slot] != 0 || dupOf_[slot] != kNone);
    if (config_.cacheEvals && isMiss && !failed) {
      const std::vector<std::size_t>& indices = keys_[slot / nc].indices;
      cache_.insert({indices, corner}, results[slot]);
      if (shared_ != nullptr) unpublished_.push_back({indices, corner});
    }
    accountRequest(corner, kind, results[slot], cached,
                   sharedFlags_[slot] != 0, isMiss, trace);
  }
  assert(stats_.requests == stats_.simulated + stats_.cacheHits +
                                stats_.sharedHits + stats_.failures);
}

std::vector<core::EvalResult> EvalEngine::evalBatch(
    const std::vector<std::size_t>& cornerIdx, const linalg::Vector& sizes,
    pvt::BlockKind kind) {
  std::vector<core::EvalResult> results(cornerIdx.size());
  evalRequests(&sizes, 1, cornerIdx.data(), cornerIdx.size(), kind,
               results.data());
  return results;
}

std::vector<core::EvalResult> EvalEngine::evalPacked(
    const std::vector<linalg::Vector>& points,
    const std::vector<std::size_t>& cornerIdx, pvt::BlockKind kind) {
  std::vector<core::EvalResult> results(points.size() * cornerIdx.size());
  evalRequests(points.data(), points.size(), cornerIdx.data(),
               cornerIdx.size(), kind, results.data());
  return results;
}

core::EvalResult EvalEngine::evalOne(std::size_t cornerIdx,
                                     const linalg::Vector& sizes,
                                     pvt::BlockKind kind) {
  core::EvalResult result;
  evalRequests(&sizes, 1, &cornerIdx, 1, kind, &result);
  return result;
}

}  // namespace trdse::eval
