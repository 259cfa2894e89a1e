// The paper's "customized BO" baseline (Section V-B):
//   * Gaussian process replaced by an extra-trees regressor (sample-scalable)
//   * dynamic balancing of exploration & exploitation: the UCB kappa decays
//     as the evaluation budget is consumed, and a slice of the candidate pool
//     is always drawn near the incumbent (exploitation) while the rest roams
//     the whole grid (exploration).
//
// It optimizes the scalar Value (worst corner across the sign-off set), so it
// can run both the single-PVT Table I benchmark and the multi-corner
// industrial cases (Tables IV/V), where the paper found it close-but-failing
// on the LDO and 4.5x slower on the ICO.
//
// Engine-backed and step()-resumable (see opt/strategy.hpp): every corner
// check is one logical EvalEngine request, so the ledger and the iteration
// budget agree by construction, and the seeded trajectory reproduces the
// original hand-rolled loop bitwise. The kappa decay is a function of the
// *total* budget, never of an individual step() target, so budget slicing
// cannot bend the acquisition schedule.
#pragma once

#include <random>

#include "core/problem.hpp"
#include "core/value.hpp"
#include "opt/extra_trees.hpp"
#include "opt/strategy.hpp"

namespace trdse::opt {

struct TreeBayesOptConfig {
  std::size_t initSamples = 12;  ///< >= 1: the forest fits on them
  std::size_t candidatePool = 600;  ///< >= 1: an acquisition picks from them
  double localFraction = 0.35;    ///< candidates perturbed around incumbent
  double localSigma = 0.08;       ///< unit-space perturbation width
  double kappaStart = 2.0;        ///< UCB exploration weight at t = 0
  double kappaEnd = 0.2;          ///< ... decayed linearly by budget consumed
  double failedPenaltyPerSpec = 1.5;  ///< regression target for failed sims
  /// Refit cadence: the forest is rebuilt when observations since the last
  /// fit exceed max(1, total/refitDivisor) — amortizing the O(n log n) fit
  /// over long runs without materially hurting the acquisition.
  std::size_t refitDivisor = 50;
  std::uint64_t seed = 1;
};

/// Customized tree-BO emits the common outcome schema.
using TreeBayesOptOutcome = StrategyOutcome;

class TreeBayesOpt final : public Strategy {
 public:
  /// The problem is copied (callbacks + metadata), so temporaries are safe.
  /// `budget` fixes the total simulation allowance (and the kappa-decay
  /// denominator). Throws std::invalid_argument when config.initSamples or
  /// candidatePool is 0.
  TreeBayesOpt(core::SizingProblem problem, TreeBayesOptConfig config,
               std::size_t budget);

  std::string_view name() const override { return "tree_bayes_opt"; }
  std::size_t budget() const override { return budget_; }

  /// Advance the init-sample / BO loop until the cumulative target is
  /// reached or the CSP is solved. Slice boundaries pause only *between*
  /// observations; the multi-corner sweep inside one observation runs to its
  /// own early-exit rules (bounded by the corner count), exactly as in the
  /// single-shot loop. Each request offers the engine the rest of its sweep,
  /// so a lane-batched backend simulates the corners together.
  const StrategyOutcome& step(std::size_t target) override;

  const StrategyOutcome& outcome() const override { return result_; }
  bool finished() const override;
  eval::EvalEngine& engine() override { return engine_; }

 private:
  /// Where the search stands between two observations.
  enum class Phase : std::uint8_t { kInitSample, kBoLoop, kDone };

  /// Worst value across all sign-off corners (early exit on hard failure),
  /// then dataset/incumbent bookkeeping — one full legacy observation.
  void observe(const linalg::Vector& rawSizes);

  const StrategyOutcome& harvest();

  core::SizingProblem problem_;
  TreeBayesOptConfig config_;
  core::ValueFunction value_;
  eval::EvalEngine engine_;
  std::mt19937_64 rng_;
  std::size_t budget_ = 0;

  // ---- Resumable loop state ----
  Phase phase_ = Phase::kInitSample;
  std::size_t initDone_ = 0;            ///< init samples taken
  std::vector<linalg::Vector> xs_;      ///< unit-space inputs
  std::vector<double> ys_;              ///< observed worst-corner values
  linalg::Vector bestUnit_;             ///< incumbent in unit space
  ExtraTreesRegressor model_;
  std::size_t lastFitSize_ = 0;
  /// Member, not a local: normal_distribution caches its spare deviate, so
  /// the stream must survive step() boundaries for sliced runs to reproduce
  /// single-shot ones bitwise.
  std::normal_distribution<double> gauss_;
  StrategyOutcome result_;
};

}  // namespace trdse::opt
