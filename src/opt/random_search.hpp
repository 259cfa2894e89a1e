// Uniform random search over the design-space grid — the paper's strongest
// model-free baseline in Table I (100% success in 8565 average iterations on
// the 45nm opamp) and the failing baseline of Table III's PVT task.
//
// Engine-backed and step()-resumable (see opt/strategy.hpp): every corner
// check is one logical request through an EvalEngine, so the ledger,
// EvalStats and the `iterations` budget count are a single source of truth
// (ledger.totalBlocks() == iterations always), and the seeded trajectory is
// bitwise identical to the original hand-rolled evaluation loop.
#pragma once

#include <random>

#include "core/problem.hpp"
#include "core/value.hpp"
#include "opt/strategy.hpp"

namespace trdse::io {
class CheckpointReader;
}  // namespace trdse::io

namespace trdse::opt {

/// Random search emits the common outcome schema.
using RandomSearchOutcome = StrategyOutcome;

class RandomSearch final : public Strategy {
 public:
  /// The problem is copied (callbacks + metadata), so temporaries are safe.
  /// `budget` fixes the total simulation allowance.
  RandomSearch(core::SizingProblem problem, std::uint64_t seed,
               std::size_t budget);

  std::string_view name() const override { return "random_search"; }
  std::size_t budget() const override { return budget_; }

  /// Sample random grid points until every corner passes or the cumulative
  /// budget target is reached. Corners are checked sequentially per point
  /// with early exit, each check costing one logical simulation (EDA-block
  /// accounting). A slice boundary pauses *inside* a corner sweep and the
  /// next step() resumes it, so sliced and single-shot runs are bitwise
  /// identical. Each request offers the engine the first corner of the
  /// sizings this step can still start, up to two lane passes ahead
  /// (pre-drawn on a copy of the rng), so a lane-batched backend simulates
  /// them together.
  const StrategyOutcome& step(std::size_t target) override;

  const StrategyOutcome& outcome() const override { return result_; }
  bool finished() const override;
  eval::EvalEngine& engine() override { return engine_; }

  /// Checkpointable: RNG stream, sweep position, outcome, and the engine's
  /// memo/ledger/stats all snapshot (checkpoint kind "random-search").
  bool supportsCheckpoint() const override { return true; }
  std::string saveCheckpointBlob() const override;
  /// A blob taken on another problem shape or budget is rejected. A restore
  /// that fails past the container check leaves the freshly-seeded state,
  /// never a hybrid.
  void restoreCheckpointBlob(const std::string& blob,
                             const std::string& source) override;

 private:
  /// restoreCheckpointBlob() body.
  void restoreSections(const io::CheckpointReader& r);

  core::SizingProblem problem_;
  core::ValueFunction value_;
  eval::EvalEngine engine_;
  std::mt19937_64 rng_;
  /// Lookahead scratch: a copy of rng_ that pre-draws the next sizings.
  std::mt19937_64 aheadRng_;
  std::uint64_t seed_ = 0;
  std::size_t budget_ = 0;

  // ---- Resumable sweep state ----
  bool havePoint_ = false;     ///< mid-sweep: x_/cornerPos_/worst_ are live
  linalg::Vector x_;           ///< point under evaluation
  std::size_t cornerPos_ = 0;  ///< next corner to check on x_
  double worst_ = 0.0;         ///< min corner value seen on x_
  StrategyOutcome result_;
};

}  // namespace trdse::opt
