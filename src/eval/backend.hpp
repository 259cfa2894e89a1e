// Pluggable circuit-evaluation backends — the paper's Spice(X) behind an
// interface.
//
// An EvalBackend is a pure, thread-safe function of (sizes, corner); the
// EvalEngine schedules batched requests onto it, memoizes results, and owns
// the EDA-block accounting. CallbackBackend preserves the existing designer
// contract (any CornerEvalFn, plus the optional fused CornerBatchEvalFn that
// circuits::Registry problems ship).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "sim/mosfet.hpp"  // kSimLanes, the native batch width of the simulator
#include "sim/process.hpp"

namespace trdse::eval {

/// Request identity the EvalEngine hands down with every backend call — the
/// cache-key tuple plus the retry attempt counter. Fault-aware decorators
/// (eval::FaultInjector) key their deterministic schedules on it; plain
/// backends ignore it. The indices pointer stays valid for the duration of
/// the call only.
struct EvalContext {
  const std::vector<std::size_t>* indices = nullptr;  ///< snapped grid indices
  std::size_t cornerIndex = 0;  ///< position in the engine's corner list
  std::size_t attempt = 0;      ///< 0-based retry attempt of this request
};

/// Abstract evaluation service. Implementations must be deterministic pure
/// functions of (sizes, corner) — memoization assumes re-evaluating a snapped
/// grid point on the same corner reproduces the result bitwise — and
/// thread-safe, since the engine fans batches out across a worker pool.
/// (Fault decorators are deterministic in (sizes, corner, context) instead,
/// which keeps every fault scenario bitwise reproducible too.)
///
/// The engine submits its cache misses in chunks of at most batchWidth()
/// operating points, one evaluateBatch call per chunk and retry round. A
/// backend that can fuse several (sizing, corner) points into one simulator
/// pass (the lane-blocked engines in sim/op_batch.hpp) advertises a width
/// above 1. Slot i of a call must not depend on the other slots, so the
/// chunk shape changes no search outcome, ledger, or statistic.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  /// Stable label for reports and per-backend timing statistics.
  virtual std::string_view name() const = 0;

  /// Operating points one evaluateBatch call can fuse (1 = scalar backend).
  virtual std::size_t batchWidth() const { return 1; }

  /// Evaluate `count` (sizing, corner) operating points in a single call;
  /// results land in `results[0..count)`. Slot i's sizing is `*sizes[i]` —
  /// slots may mix sizings, which lets the engine pack lanes across
  /// requests. `contexts[i]` carries request i's identity (for fault
  /// decorators).
  virtual void evaluateBatch(const linalg::Vector* const* sizes,
                             const sim::PvtCorner* corners,
                             const EvalContext* contexts,
                             core::EvalResult* results,
                             std::size_t count) const = 0;
};

/// Wraps any CornerEvalFn — the adapter that keeps the designer contract
/// (SizingProblem::evaluate and its optional evaluateBatch) working
/// unchanged behind the engine.
class CallbackBackend final : public EvalBackend {
 public:
  /// `batchFn`, when supplied, is the fused corner-batch path (must be
  /// bitwise identical to `fn` per slot — see core::CornerBatchEvalFn);
  /// `batchWidth` is the lane width the engine should chunk requests to.
  explicit CallbackBackend(core::CornerEvalFn fn,
                           std::string label = "callback",
                           core::CornerBatchEvalFn batchFn = {},
                           std::size_t batchWidth = sim::kSimLanes)
      : fn_(std::move(fn)),
        batchFn_(std::move(batchFn)),
        width_(batchWidth),
        label_(std::move(label)) {}

  std::string_view name() const override { return label_; }

  std::size_t batchWidth() const override { return batchFn_ ? width_ : 1; }

  /// Runs the fused callback when there is one and `count > 1`; otherwise
  /// runs the scalar callback per slot. A one-slot fused pass would still
  /// pay for every idle lane, while the scalar callback yields the same bits
  /// at one point's cost.
  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners,
                     const EvalContext* contexts, core::EvalResult* results,
                     std::size_t count) const override {
    (void)contexts;  // callbacks carry no request identity
    if (batchFn_ && count > 1) {
      batchFn_(sizes, corners, results, count);
      return;
    }
    for (std::size_t i = 0; i < count; ++i)
      results[i] = fn_(*sizes[i], corners[i]);
  }

 private:
  core::CornerEvalFn fn_;
  core::CornerBatchEvalFn batchFn_;
  std::size_t width_ = 1;
  std::string label_;
};

}  // namespace trdse::eval
