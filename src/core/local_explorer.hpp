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
#include <span>

#include "core/local_dataset.hpp"
#include "core/problem.hpp"
#include "core/surrogate.hpp"
#include "core/trust_region.hpp"
#include "core/value.hpp"
#include "eval/eval_engine.hpp"

namespace trdse::common {
class ThreadPool;
}  // namespace trdse::common

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

/// Algorithm 1 line 10, the one planner behind LocalExplorer and PvtSearch:
/// Monte Carlo candidates in the trust region, scored on one or more
/// surrogates, keeping the candidate whose lowest planner score across them
/// is highest (the paper's "lowest expected value" rule for a PVT pool).
///
/// A plan draws its uniforms serially from the caller's rng, then snaps and
/// scores the block in row chunks — concurrently when given a pool. Chunks
/// start at multiples of linalg::kGemmRowTile and each has its own scratch,
/// per-candidate scores reduce by min in surrogate order, and the pick is a
/// serial first-best scan, so the result is bitwise the same for any pool.
class CandidatePlanner {
 public:
  /// Draw `count` candidates uniformly in the infinity-norm ball of `radius`
  /// around `centerUnit` (candidate-major, dimension-minor), clamp each to
  /// the unit cube and snap it onto the grid, so the planned point is the
  /// simulated point: row s equals the per-sample draw
  /// `toUnit(fromUnitSnapped(clamp(center + radius * unif)))` bitwise. Score
  /// row s as the min over `surrogates` of value.plannerScore(prediction)
  /// (+inf with no surrogates). Returns the first row with the highest
  /// finite score, or `count` when none scored. `pool` (may be null: inline)
  /// runs the chunks; on a pool of N threads the block splits into N chunks.
  std::size_t plan(const DesignSpace& space, const ValueFunction& value,
                   std::span<const SpiceSurrogate* const> surrogates,
                   const linalg::Vector& centerUnit, double radius,
                   std::size_t count, std::mt19937_64& rng,
                   common::ThreadPool* pool);

  /// The last plan's snapped candidates, one unit-space row each.
  const linalg::Matrix& candidates() const { return cand_; }
  /// The last plan's per-candidate scores (min over the surrogates).
  const std::vector<double>& scores() const { return scores_; }

 private:
  /// One row chunk's scratch: its candidates, their predictions, and the
  /// surrogate workspace — never shared between concurrent chunks.
  struct Chunk {
    linalg::Matrix x;
    linalg::Matrix pred;
    SpiceSurrogate::PredictWorkspace ws;
  };

  linalg::Matrix cand_;
  std::vector<double> scores_;
  std::vector<Chunk> chunks_;
};

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

  DesignSpace space_;
  ValueFunction value_;
  LocalExplorerConfig config_;
  /// Single-corner engine over the EvalFn (unique_ptr: the engine owns a
  /// thread pool and is therefore immovable).
  std::unique_ptr<eval::EvalEngine> engine_;
  SpiceSurrogate surrogate_;
  std::mt19937_64 rng_;
  LocalDataset data_;  ///< all successful samples (unit space + measurements)

  CandidatePlanner planner_;  ///< line 10; scratch reused across TRM steps
};

}  // namespace trdse::core
