// Fault-injecting EvalBackend decorator.
//
// Wraps any backend and consults a sim::FaultPlan on every context-aware
// call: when the plan schedules a fault for (scope, indices, corner,
// attempt), the injector synthesizes that failure instead of (or on top of)
// the inner result. Because the plan is a pure hash of the identity tuple,
// a faulty pipeline is exactly as reproducible as a clean one — the whole
// retry/quarantine machinery can be tested bitwise.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "eval/backend.hpp"
#include "sim/fault.hpp"

namespace trdse::eval {

/// Decorator injecting deterministic faults around an inner backend.
///
/// Behavior per scheduled class:
///   * kTimeout        — optionally stalls for the plan's
///                       timeoutStallSeconds, then reports a timeout failure
///                       without invoking the inner backend (a real timeout
///                       yields no usable output either).
///   * kNonConvergence — reports a transient solver failure, inner backend
///                       not invoked.
///   * kNonFinite      — invokes the inner backend, then corrupts one
///                       deterministically-chosen measurement to NaN; the
///                       engine's finiteness guard must catch it (which is
///                       how that guard gets exercised end to end).
///   * kNone           — forwards untouched.
class FaultInjector final : public EvalBackend {
 public:
  /// @param inner  backend to decorate (must be non-null).
  /// @param plan   deterministic fault schedule (must be non-null).
  /// @param scope  stable scope label (circuit/problem name) keying the plan.
  FaultInjector(std::shared_ptr<const EvalBackend> inner,
                std::shared_ptr<const sim::FaultPlan> plan,
                std::string_view scope);

  std::string_view name() const override { return label_; }

  /// Keyless calls bypass injection: without the identity tuple a fault draw
  /// could not be deterministic, and the engine always supplies the context.
  core::EvalResult evaluate(const linalg::Vector& sizes,
                            const sim::PvtCorner& corner) const override;

  core::EvalResult evaluate(const linalg::Vector& sizes,
                            const sim::PvtCorner& corner,
                            const EvalContext& context) const override;

  /// The decorator is transparent to batching: the inner backend's width is
  /// the batch width, and the batch override draws each lane's fault from
  /// the same (scope, indices, corner, attempt) tuple as the scalar path —
  /// a fault scheduled for a request lands in the same slot whether the
  /// engine dispatches scalar requests or corner-batches.
  std::size_t batchWidth() const override { return wrapped_->batchWidth(); }

  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners,
                     const EvalContext* contexts, core::EvalResult* results,
                     std::size_t count) const override;

 private:
  std::shared_ptr<const EvalBackend> wrapped_;
  std::shared_ptr<const sim::FaultPlan> plan_;
  std::uint64_t scopeHash_ = 0;
  std::string label_;
};

}  // namespace trdse::eval
