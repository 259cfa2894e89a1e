// The "fast local explorer" — paper Algorithm 1 — for one PVT condition.
//
// Search loop: Monte Carlo sample the global space, dive into the best
// region, then alternate {train surrogate on trajectory} -> {Monte Carlo plan
// inside the trust region on the surrogate} -> {SPICE the chosen trial} ->
// {TRM accept/reject + radius update}, restarting from a fresh global sample
// when the local region is exhausted (line 15's escape criterion).
//
// Every SPICE invocation — initial samples included — counts one iteration
// against the budget, matching the paper's Table I accounting.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <random>

#include "core/local_dataset.hpp"
#include "core/problem.hpp"
#include "core/surrogate.hpp"
#include "core/trust_region.hpp"
#include "core/value.hpp"
#include "eval/eval_engine.hpp"

namespace trdse::core {

/// Hyper-parameters of the single-condition trust-region search.
struct LocalExplorerConfig {
  std::size_t initSamples = 12;   ///< N of Algorithm 1 line 2
  std::size_t mcSamples = 800;    ///< m of line 10
  std::size_t restartAfter = 70;  ///< Criterion of line 15 (steps since restart)
  /// Early escape: restart when the center has not improved for this many
  /// consecutive TRM steps (a cheaper-to-trigger version of the Criterion —
  /// dead local optima are abandoned before the hard cap).
  std::size_t stagnationPatience = 18;
  /// Surrogate training is restricted to samples within
  /// localityFactor * radius (infinity-norm) of the current center — the
  /// paper's "compact circuit space D_L"; all collected samples are kept and
  /// re-enter training whenever the region slides over them.
  double localityFactor = 3.0;
  std::size_t minLocalSamples = 12;  ///< fall back to nearest-K when sparse
  /// Memoize evaluations on snapped grid indices through the eval engine:
  /// re-simulating an already-visited grid point costs zero EDA blocks. The
  /// seeded SearchOutcome (iterations included — the budget is charged per
  /// logical request) is bitwise identical with the cache on or off —
  /// provided the evaluation callback is a pure function of the snapped
  /// sizes (every circuits:: evaluator is); set this false for impure or
  /// stateful callbacks (e.g. per-call noise injection), which must see
  /// every request. PvtSearch honors this flag too: its engine caches only
  /// when both this and PvtSearchConfig::cacheEvals are set.
  bool cacheEvals = true;
  TrustRegionConfig trustRegion;  ///< radius schedule (paper IV-C)
  SurrogateConfig surrogate;      ///< f_NN architecture and training
  std::uint64_t seed = 1;         ///< seed for sampling and network init
  /// When set, the first "random" sample of the first episode is this point —
  /// the process-porting "starting point sharing" strategy (Table II).
  std::optional<linalg::Vector> startingPoint;
  /// When set, surrogate weights are initialized from this network instead of
  /// randomly — the porting "weight sharing" strategy (Table II).
  const nn::Mlp* warmStartWeights = nullptr;
};

/// Single-condition evaluation callback (the Spice function of the CSP).
/// Expected to be a deterministic pure function of the (snapped) sizes when
/// the default evaluation memoization is on — see
/// LocalExplorerConfig::cacheEvals.
using EvalFn = std::function<EvalResult(const linalg::Vector& sizes)>;

/// Algorithm 1 line 10's candidate block, shared by LocalExplorer and
/// PvtSearch: `count` uniform draws in the infinity-norm ball of `radius`
/// around `centerUnit`, clamped to the unit cube, snapped onto the grid and
/// written back in unit coordinates as the rows of `out` (resized). Draws
/// are candidate-major, dimension-minor. Row s equals the per-sample draw
/// `toUnit(fromUnitSnapped(clamp(center + radius * unif)))` bitwise.
void drawCandidates(const DesignSpace& space, const linalg::Vector& centerUnit,
                    double radius, std::size_t count, std::mt19937_64& rng,
                    linalg::Matrix& out);

/// Step-by-step telemetry of one search run (Fig. 3's raw material).
struct SearchTrace {
  std::vector<double> bestValueHistory;  ///< best-so-far after each simulation
  std::vector<double> radiusHistory;     ///< trust-region radius per TRM step
  std::size_t restarts = 0;              ///< global restarts taken
  std::size_t acceptedSteps = 0;         ///< TRM trials accepted
  std::size_t rejectedSteps = 0;         ///< TRM trials rejected
};

/// Result of one single-condition search run.
struct SearchOutcome {
  bool solved = false;              ///< the CSP was satisfied
  /// Logical SPICE requests consumed; with caching on, revisited grid points
  /// count here but cost no EDA time (see evalStats.simulated).
  std::size_t iterations = 0;
  linalg::Vector sizes;             ///< best (or solving) assignment
  EvalResult eval;                  ///< its measurements
  double bestValue = kFailedValue;  ///< Value of the best assignment
  SearchTrace trace;                ///< per-step telemetry
  eval::EvalStats evalStats;        ///< cache hit/miss + backend timing
};

/// The paper's Algorithm 1: surrogate-guided trust-region search under one
/// PVT condition.
class LocalExplorer {
 public:
  /// The space is copied (it is small), so temporaries are safe to pass.
  LocalExplorer(DesignSpace space, ValueFunction value, EvalFn evaluate,
                LocalExplorerConfig config);

  /// Run until the CSP is satisfied or `maxIterations` simulations are spent.
  SearchOutcome run(std::size_t maxIterations);

  /// Surrogate after a run (for porting: save its weights).
  const SpiceSurrogate& surrogate() const { return surrogate_; }

  /// The engine all evaluations route through (cache/ledger inspection).
  const eval::EvalEngine& engine() const { return *engine_; }

 private:
  struct Evaluated {
    linalg::Vector sizes;
    linalg::Vector unit;
    EvalResult eval;
    double value = kFailedValue;  ///< the paper's Value (reported)
    double score = kFailedValue;  ///< plannerScore (used for TRM decisions)
  };

  /// SPICE one point (through the engine), book-keep trajectory/training
  /// data, update best.
  Evaluated simulate(const linalg::Vector& sizes, SearchOutcome& out);

  /// run() body; run() wraps it to harvest engine accounting at every exit.
  SearchOutcome runSearch(std::size_t maxIterations);

  /// Load the samples near `centerUnit` into the surrogate and train.
  void trainLocal(const linalg::Vector& centerUnit, double radius);

  /// Algorithm 1 line 10: sample mcSamples candidates in the trust region,
  /// score them in one batched surrogate pass, return the best unit-space
  /// point and its model score. `bestUnit` stays empty when nothing scored.
  void planCandidates(const linalg::Vector& centerUnit, double radius,
                      linalg::Vector& bestUnit, double& bestModelValue);

  DesignSpace space_;
  ValueFunction value_;
  LocalExplorerConfig config_;
  /// Single-corner engine over the EvalFn (unique_ptr: the engine owns a
  /// thread pool and is therefore immovable).
  std::unique_ptr<eval::EvalEngine> engine_;
  SpiceSurrogate surrogate_;
  std::mt19937_64 rng_;
  LocalDataset data_;  ///< all successful samples (unit space + measurements)

  // Planning scratch, reused across TRM steps (capacity persists).
  linalg::Matrix candBuf_;   ///< mcSamples × dim candidate block
  linalg::Matrix predBuf_;   ///< mcSamples × measDim batched predictions
};

}  // namespace trdse::core
