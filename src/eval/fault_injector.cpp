#include "eval/fault_injector.hpp"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

namespace trdse::eval {

FaultInjector::FaultInjector(std::shared_ptr<const EvalBackend> inner,
                             std::shared_ptr<const sim::FaultPlan> plan,
                             std::string_view scope)
    : wrapped_(std::move(inner)),
      plan_(std::move(plan)),
      scopeHash_(sim::hashScope(scope)) {
  if (!wrapped_)
    throw std::invalid_argument("FaultInjector: inner backend is null");
  if (!plan_) throw std::invalid_argument("FaultInjector: fault plan is null");
  label_ = "faulty:" + std::string(wrapped_->name());
}

core::EvalResult FaultInjector::evaluate(const linalg::Vector& sizes,
                                         const sim::PvtCorner& corner) const {
  return wrapped_->evaluate(sizes, corner);
}

namespace {

/// Indices list of a context (empty when the caller supplied none).
const std::vector<std::size_t>& contextIndices(const EvalContext& context) {
  static const std::vector<std::size_t> kNoIndices;
  return context.indices ? *context.indices : kNoIndices;
}

/// Synthesize the timeout failure (optionally stalling first, so the
/// engine's wall-clock deadline machinery can be exercised).
core::EvalResult makeTimeoutResult(const sim::FaultPlan& plan) {
  const double stall = plan.config().timeoutStallSeconds;
  if (stall > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(stall));
  core::EvalResult r;
  r.ok = false;
  r.failure = sim::FaultClass::kTimeout;
  return r;
}

/// Apply the kNonFinite corruption to an inner result (shared by the scalar
/// and batch paths so the corrupted slot is identical in both).
void corruptNonFinite(std::uint64_t scopeHash, const EvalContext& context,
                      core::EvalResult& r) {
  if (r.ok && !r.measurements.empty()) {
    // Corrupt a deterministically-chosen slot; the engine's finiteness
    // guard — not this decorator — is responsible for classifying it.
    std::uint64_t h = scopeHash ^ (context.cornerIndex * 0x9e3779b97f4a7c15ull);
    for (const std::size_t idx : contextIndices(context))
      h = h * 0x100000001b3ull + idx;
    r.measurements[h % r.measurements.size()] =
        std::numeric_limits<double>::quiet_NaN();
  } else {
    // The inner result was already unusable; report the scheduled class
    // so accounting still sees a fault rather than a clean infeasible.
    r.ok = false;
    r.failure = sim::FaultClass::kNonFinite;
    r.measurements.clear();
  }
}

}  // namespace

core::EvalResult FaultInjector::evaluate(const linalg::Vector& sizes,
                                         const sim::PvtCorner& corner,
                                         const EvalContext& context) const {
  const sim::FaultClass cls = plan_->decide(
      scopeHash_, contextIndices(context), context.cornerIndex, context.attempt);
  switch (cls) {
    case sim::FaultClass::kNone:
      return wrapped_->evaluate(sizes, corner, context);
    case sim::FaultClass::kTimeout:
      return makeTimeoutResult(*plan_);
    case sim::FaultClass::kNonConvergence: {
      core::EvalResult r;
      r.ok = false;
      r.failure = sim::FaultClass::kNonConvergence;
      return r;
    }
    case sim::FaultClass::kNonFinite: {
      core::EvalResult r = wrapped_->evaluate(sizes, corner, context);
      corruptNonFinite(scopeHash_, context, r);
      return r;
    }
  }
  return wrapped_->evaluate(sizes, corner, context);
}

void FaultInjector::evaluateBatch(const linalg::Vector* const* sizes,
                                  const sim::PvtCorner* corners,
                                  const EvalContext* contexts,
                                  core::EvalResult* results,
                                  std::size_t count) const {
  // Draw every lane's fault class from the same identity tuple the scalar
  // override uses, then forward the lanes that need the inner simulator
  // (clean lanes and kNonFinite lanes, whose corruption rides on a real
  // result) as one compacted inner batch. The inner batch is bitwise
  // per-slot identical to scalar inner calls, and the synthesized failures /
  // corruption are computed by the shared helpers, so a fault scheduled for
  // (sizing, corner, attempt) lands in exactly the same slot with exactly
  // the same bytes on either dispatch path.
  std::vector<sim::FaultClass> cls(count);
  std::vector<std::size_t> fwd;
  std::vector<const linalg::Vector*> fwdSizes;
  std::vector<sim::PvtCorner> fwdCorners;
  std::vector<EvalContext> fwdContexts;
  fwd.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    cls[i] = plan_->decide(scopeHash_, contextIndices(contexts[i]),
                           contexts[i].cornerIndex, contexts[i].attempt);
    if (cls[i] == sim::FaultClass::kNone ||
        cls[i] == sim::FaultClass::kNonFinite) {
      fwd.push_back(i);
      fwdSizes.push_back(sizes[i]);
      fwdCorners.push_back(corners[i]);
      fwdContexts.push_back(contexts[i]);
    }
  }
  std::vector<core::EvalResult> fwdResults(fwd.size());
  if (!fwd.empty())
    wrapped_->evaluateBatch(fwdSizes.data(), fwdCorners.data(),
                            fwdContexts.data(), fwdResults.data(), fwd.size());
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < count; ++i) {
    switch (cls[i]) {
      case sim::FaultClass::kNone:
        results[i] = std::move(fwdResults[cursor++]);
        break;
      case sim::FaultClass::kTimeout:
        results[i] = makeTimeoutResult(*plan_);
        break;
      case sim::FaultClass::kNonConvergence: {
        core::EvalResult r;
        r.ok = false;
        r.failure = sim::FaultClass::kNonConvergence;
        results[i] = std::move(r);
        break;
      }
      case sim::FaultClass::kNonFinite: {
        core::EvalResult r = std::move(fwdResults[cursor++]);
        corruptNonFinite(scopeHash_, contexts[i], r);
        results[i] = std::move(r);
        break;
      }
    }
  }
}

}  // namespace trdse::eval
