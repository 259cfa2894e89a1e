#include "eval/eval_engine.hpp"

#include <algorithm>
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
  // Baseline the process-wide phase counters so this engine's stats only
  // ever accumulate growth that happened during its own dispatches.
  phaseBase_ = sim::simPhaseTotals();
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
  phaseBase_ = sim::simPhaseTotals();
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

core::EvalResult EvalEngine::runWithRetry(const MissRef& ref,
                                          MissTrace& trace) const {
  const RetryPolicy& retry = config_.retry;
  const std::size_t maxAttempts = std::max<std::size_t>(1, retry.maxAttempts);
  trace = MissTrace{};
  sim::FaultClass last = sim::FaultClass::kNone;
  for (std::size_t attempt = 0; attempt < maxAttempts; ++attempt) {
    EvalContext ctx;
    ctx.indices = ref.indices;
    ctx.cornerIndex = ref.cornerIndex;
    ctx.attempt = attempt;
    const auto t0 = std::chrono::steady_clock::now();
    core::EvalResult r =
        backend_->evaluate(*ref.sizes, corners_[ref.cornerIndex], ctx);
    const double elapsed = secondsSince(t0);
    trace.seconds += elapsed;
    // Classify the attempt: the backend's own verdict first, then the
    // wall-clock deadline, then the finiteness guard. The guard runs even
    // without any injector — a real backend emitting NaN must be treated as
    // a fault, not memoized and spread through shared caches.
    sim::FaultClass cls = r.failure;
    if (cls == sim::FaultClass::kNone && retry.timeoutSeconds > 0.0 &&
        elapsed > retry.timeoutSeconds)
      cls = sim::FaultClass::kTimeout;
    if (cls == sim::FaultClass::kNone && r.ok && !allFinite(r.measurements))
      cls = sim::FaultClass::kNonFinite;
    if (cls == sim::FaultClass::kNone) {
      trace.retries = static_cast<std::uint32_t>(attempt);
      return r;
    }
    last = cls;
    if (attempt + 1 < maxAttempts) {
      // Charge deterministic backoff for the retry about to happen. Units
      // are ledger bookkeeping, not sleeps: the cost model stays bitwise
      // reproducible and tests stay fast.
      const std::size_t unit =
          std::min(retry.backoffBase << attempt, retry.backoffCap);
      trace.backoff += static_cast<std::uint32_t>(unit);
    }
  }
  trace.retries = static_cast<std::uint32_t>(maxAttempts - 1);
  core::EvalResult failed;
  failed.ok = false;
  failed.failure = last;
  return failed;
}

void EvalEngine::runBatchWithRetry(std::vector<core::EvalResult>& results,
                                   std::size_t begin, std::size_t count) {
  const RetryPolicy& retry = config_.retry;
  const std::size_t maxAttempts = std::max<std::size_t>(1, retry.maxAttempts);
  // Lanes still awaiting a clean result, as offsets into the chunk.
  std::vector<std::size_t> active(count);
  for (std::size_t i = 0; i < count; ++i) {
    active[i] = i;
    missTrace_[begin + i] = MissTrace{};
  }
  std::vector<sim::FaultClass> last(count, sim::FaultClass::kNone);
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
    // Wall time is charged once per backend call (stats_.backendSeconds sums
    // traces); it is measurement-only, so the lane attribution is free to
    // differ from the scalar path's.
    missTrace_[begin].seconds += elapsed;
    // Classify each lane exactly as runWithRetry would have (result fault,
    // wall-clock deadline, finiteness guard); the deadline uses the batch
    // call's elapsed time, which — like every wall-clock classification — is
    // outside the determinism contract.
    std::vector<std::size_t> still;
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
      if (cls == sim::FaultClass::kNone) {
        trace.retries = static_cast<std::uint32_t>(attempt);
        results[missRefs_[begin + lane].slot] = std::move(r);
        continue;
      }
      last[lane] = cls;
      if (attempt + 1 < maxAttempts) {
        const std::size_t unit =
            std::min(retry.backoffBase << attempt, retry.backoffCap);
        trace.backoff += static_cast<std::uint32_t>(unit);
        still.push_back(lane);
      } else {
        trace.retries = static_cast<std::uint32_t>(maxAttempts - 1);
        core::EvalResult failed;
        failed.ok = false;
        failed.failure = last[lane];
        results[missRefs_[begin + lane].slot] = std::move(failed);
      }
    }
    active.swap(still);
  }
}

void EvalEngine::dispatchMisses(std::vector<core::EvalResult>& results) {
  missTrace_.assign(missRefs_.size(), MissTrace{});
  const std::size_t nMiss = missRefs_.size();
  const std::size_t width =
      config_.batchedSim ? backend_->batchWidth() : std::size_t{1};
  if (width > 1) {
    // Chunk the miss queue into full lanes. A trailing chunk of exactly one
    // lane would pay for a whole wide simulator pass (width - 1 idle lanes)
    // to produce one result; the scalar path produces the identical bits —
    // that is the batch contract — at one lane's cost, so route it there.
    // Chunk boundaries still depend only on the miss count and the width,
    // and every path is bitwise per-slot identical, so the outcome is the
    // same for any thread count and any dispatch shape.
    const std::size_t batched = (nMiss % width == 1) ? nMiss - 1 : nMiss;
    const std::size_t chunks = (batched + width - 1) / width;
    const std::size_t tasks = chunks + (nMiss - batched);
    pool_.parallelFor(tasks, [&](std::size_t t) {
      if (t < chunks) {
        const std::size_t begin = t * width;
        runBatchWithRetry(results, begin, std::min(width, batched - begin));
      } else {
        const std::size_t m = batched + (t - chunks);
        results[missRefs_[m].slot] = runWithRetry(missRefs_[m], missTrace_[m]);
      }
    });
  } else {
    pool_.parallelFor(nMiss, [&](std::size_t m) {
      results[missRefs_[m].slot] = runWithRetry(missRefs_[m], missTrace_[m]);
    });
  }
  for (const MissTrace& t : missTrace_) stats_.backendSeconds += t.seconds;
  harvestSimPhases();
}

void EvalEngine::harvestSimPhases() {
  const sim::SimPhaseTotals now = sim::simPhaseTotals();
  stats_.simDeviceEvalNs += now.deviceEvalNs - phaseBase_.deviceEvalNs;
  stats_.simStampNs += now.stampNs - phaseBase_.stampNs;
  stats_.simFactorNs += now.factorNs - phaseBase_.factorNs;
  stats_.simSolveNs += now.solveNs - phaseBase_.solveNs;
  phaseBase_ = now;
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

void EvalEngine::prepareKey(const linalg::Vector& sizes) {
  const std::size_t dim = space_.dim();
  assert(sizes.size() == dim);
  snapScratch_.resize(dim);
  keyScratch_.indices.resize(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    const std::size_t idx = space_.nearestIndex(d, sizes[d]);
    keyScratch_.indices[d] = idx;
    snapScratch_[d] = space_.gridValue(d, idx);
  }
}

std::vector<core::EvalResult> EvalEngine::evalBatch(
    const std::vector<std::size_t>& cornerIdx, const linalg::Vector& sizes,
    pvt::BlockKind kind) {
  const std::size_t n = cornerIdx.size();
  std::vector<core::EvalResult> results(n);
  if (n == 0) return results;
  // Snap here so the simulated point always matches the cache key, whatever
  // the caller passed.
  prepareKey(sizes);

  // ---- Probe the memos (and collapse in-batch duplicates) serially.
  missRefs_.clear();
  hitFlags_.assign(n, 0);
  sharedFlags_.assign(n, 0);
  dupOf_.assign(n, kNone);
  if (config_.cacheEvals) {
    for (std::size_t i = 0; i < n; ++i) {
      keyScratch_.cornerIndex = cornerIdx[i];
      if (const core::EvalResult* hit = cache_.find(keyScratch_)) {
        results[i] = *hit;
        hitFlags_[i] = 1;
        continue;
      }
      // Local miss: the cross-job cache may already hold the result. Copy a
      // shared hit into the local memo, so a repeat of the key inside this
      // batch (or later) becomes a plain local hit.
      if (shared_ != nullptr &&
          shared_->find(sharedScope_, keyScratch_, results[i])) {
        cache_.insert({keyScratch_.indices, cornerIdx[i]}, results[i]);
        hitFlags_[i] = 1;
        sharedFlags_[i] = 1;
        continue;
      }
      // A duplicate key within the batch can only repeat an earlier *miss*
      // (had the key been cached, both requests would have hit).
      for (const MissRef& m : missRefs_) {
        if (m.cornerIndex == cornerIdx[i]) {
          dupOf_[i] = m.slot;
          break;
        }
      }
      if (dupOf_[i] == kNone)
        missRefs_.push_back(
            {i, &snapScratch_, &keyScratch_.indices, cornerIdx[i]});
    }
  } else {
    for (std::size_t i = 0; i < n; ++i)
      missRefs_.push_back(
          {i, &snapScratch_, &keyScratch_.indices, cornerIdx[i]});
  }

  // ---- Fan the real simulations out; results land in per-request slots.
  // With a batch-capable backend, misses go down in consecutive chunks of
  // the backend's lane width (one fused simulator pass per chunk, chunks in
  // parallel, a lone trailing lane scalar); otherwise each miss runs its own
  // scalar retry loop. Chunk boundaries depend only on the miss list and the
  // width, and every path is bitwise per-slot identical, so the outcome is
  // the same for any thread count and either dispatch mode.
  dispatchMisses(results);

  // ---- Merge and account after the join, in request order: cache inserts,
  // ledger blocks, and counters are then identical for any thread count.
  std::size_t cursor = 0;  // missRefs_ slots ascend with i
  for (std::size_t i = 0; i < n; ++i) {
    const bool isMiss =
        cursor < missRefs_.size() && missRefs_[cursor].slot == i;
    const MissTrace trace = isMiss ? missTrace_[cursor++] : MissTrace{};
    if (dupOf_[i] != kNone) results[i] = results[dupOf_[i]];
    const bool failed = results[i].failure != sim::FaultClass::kNone;
    // A failed request is never "cached": poison enters no memo, and a
    // duplicate of a failed miss shares its failure, not a cache hit.
    const bool cached =
        !failed && (hitFlags_[i] != 0 || dupOf_[i] != kNone);
    if (config_.cacheEvals && isMiss && !failed) {
      cache_.insert({keyScratch_.indices, cornerIdx[i]}, results[i]);
      if (shared_ != nullptr)
        unpublished_.push_back({keyScratch_.indices, cornerIdx[i]});
    }
    accountRequest(cornerIdx[i], kind, results[i], cached,
                   sharedFlags_[i] != 0, isMiss, trace);
  }
  return results;
}

std::vector<core::EvalResult> EvalEngine::evalPacked(
    const std::vector<linalg::Vector>& points,
    const std::vector<std::size_t>& cornerIdx, pvt::BlockKind kind) {
  const std::size_t np = points.size();
  const std::size_t nc = cornerIdx.size();
  std::vector<core::EvalResult> results(np * nc);
  if (results.empty()) return results;

  // Snap every point once up front; the snapped sizings and index lists live
  // for the whole call because queued miss lanes point into them.
  packSnaps_.resize(np);
  packKeys_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    prepareKey(points[p]);
    packSnaps_[p] = snapScratch_;
    packKeys_[p].indices = keyScratch_.indices;
  }

  // ---- Probe the memos serially, point-major — the same request order the
  // equivalent sequence of evalBatch calls would account in.
  missRefs_.clear();
  hitFlags_.assign(results.size(), 0);
  sharedFlags_.assign(results.size(), 0);
  dupOf_.assign(results.size(), kNone);
  for (std::size_t p = 0; p < np; ++p) {
    EvalKey& key = packKeys_[p];
    for (std::size_t c = 0; c < nc; ++c) {
      const std::size_t slot = p * nc + c;
      if (config_.cacheEvals) {
        key.cornerIndex = cornerIdx[c];
        if (const core::EvalResult* hit = cache_.find(key)) {
          results[slot] = *hit;
          hitFlags_[slot] = 1;
          continue;
        }
        if (shared_ != nullptr &&
            shared_->find(sharedScope_, key, results[slot])) {
          cache_.insert({key.indices, cornerIdx[c]}, results[slot]);
          hitFlags_[slot] = 1;
          sharedFlags_[slot] = 1;
          continue;
        }
        // In-call duplicate: same snapped grid cell and corner as an earlier
        // queued miss (points from different raw sizings can snap together).
        for (const MissRef& m : missRefs_) {
          if (m.cornerIndex == cornerIdx[c] && *m.indices == key.indices) {
            dupOf_[slot] = m.slot;
            break;
          }
        }
        if (dupOf_[slot] != kNone) continue;
      }
      missRefs_.push_back(
          {slot, &packSnaps_[p], &packKeys_[p].indices, cornerIdx[c]});
    }
  }

  // ---- One fused dispatch over every queued miss: lanes pack densely
  // across points, so per-point ragged tails stop wasting simulator lanes.
  dispatchMisses(results);

  // ---- Merge and account in flat slot order (= point-major request order).
  std::size_t cursor = 0;
  for (std::size_t slot = 0; slot < results.size(); ++slot) {
    const bool isMiss =
        cursor < missRefs_.size() && missRefs_[cursor].slot == slot;
    const MissTrace trace = isMiss ? missTrace_[cursor++] : MissTrace{};
    const std::size_t corner = cornerIdx[slot % nc];
    if (dupOf_[slot] != kNone) results[slot] = results[dupOf_[slot]];
    const bool failed = results[slot].failure != sim::FaultClass::kNone;
    const bool cached =
        !failed && (hitFlags_[slot] != 0 || dupOf_[slot] != kNone);
    if (config_.cacheEvals && isMiss && !failed) {
      cache_.insert({packKeys_[slot / nc].indices, corner}, results[slot]);
      if (shared_ != nullptr)
        unpublished_.push_back({packKeys_[slot / nc].indices, corner});
    }
    accountRequest(corner, kind, results[slot], cached,
                   sharedFlags_[slot] != 0, isMiss, trace);
  }
  return results;
}

core::EvalResult EvalEngine::evalOne(std::size_t cornerIdx,
                                     const linalg::Vector& sizes,
                                     pvt::BlockKind kind) {
  prepareKey(sizes);
  keyScratch_.cornerIndex = cornerIdx;
  if (config_.cacheEvals) {
    if (const core::EvalResult* hit = cache_.find(keyScratch_)) {
      const core::EvalResult result = *hit;
      accountRequest(cornerIdx, kind, result, /*cached=*/true,
                     /*shared=*/false, /*isMiss=*/false, MissTrace{});
      return result;
    }
    if (shared_ != nullptr) {
      core::EvalResult hit;
      if (shared_->find(sharedScope_, keyScratch_, hit)) {
        cache_.insert({keyScratch_.indices, cornerIdx}, hit);
        accountRequest(cornerIdx, kind, hit, /*cached=*/true,
                       /*shared=*/true, /*isMiss=*/false, MissTrace{});
        return hit;
      }
    }
  }
  MissTrace trace;
  const MissRef ref{0, &snapScratch_, &keyScratch_.indices, cornerIdx};
  core::EvalResult result = runWithRetry(ref, trace);
  stats_.backendSeconds += trace.seconds;
  harvestSimPhases();
  const bool failed = result.failure != sim::FaultClass::kNone;
  if (config_.cacheEvals && !failed) {
    cache_.insert({keyScratch_.indices, cornerIdx}, result);
    if (shared_ != nullptr)
      unpublished_.push_back({keyScratch_.indices, cornerIdx});
  }
  accountRequest(cornerIdx, kind, result, /*cached=*/false, /*shared=*/false,
                 /*isMiss=*/true, trace);
  return result;
}

}  // namespace trdse::eval
