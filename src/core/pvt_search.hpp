// The paper's Algorithm 1 with progressive PVT exploration (Section IV-E,
// Fig. 3, Table III). A single-corner problem is its one-corner case — the
// search behind Tables I, II and V.
//
// Search loop: Monte Carlo sample the global space, dive into the best
// region, then alternate {train surrogates on the local trajectory} ->
// {Monte Carlo plan inside the trust region on the surrogates} -> {SPICE the
// chosen trial} -> {TRM accept/reject + radius update}, restarting from a
// fresh global sample when the local region is exhausted (line 15's escape
// criterion). Every SPICE invocation — initial samples included — counts one
// iteration against the budget, matching the paper's Table I accounting.
//
// Rather than verifying every corner on every iteration (brute force), the
// search focuses on a small *active pool* of conditions — initially one,
// chosen at random or by designer's hardest-first heuristic. Once the
// candidate meets spec on the whole pool, the remaining corners are verified
// (one EDA block each); the failing corner with the lowest value joins the
// pool, and the search resumes. Each active corner keeps its own independent
// surrogate model; planning scores a candidate by its *minimum* predicted
// value across the pool (the paper's "lowest expected value" rule).
#pragma once

#include <memory>
#include <optional>
#include <random>

#include "core/local_dataset.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "core/surrogate.hpp"
#include "core/trust_region.hpp"
#include "core/value.hpp"
#include "eval/eval_engine.hpp"
#include "pvt/ledger.hpp"

namespace trdse::io {
class CheckpointReader;
}  // namespace trdse::io

namespace trdse::core {

/// How the active corner pool is seeded and grown.
enum class PvtStrategy : std::uint8_t {
  kBruteForce,          ///< all corners active from the start
  kProgressiveRandom,   ///< start from a uniformly random corner
  kProgressiveHardest,  ///< start from the heuristically hardest corner
};

/// Human-readable strategy name (bench/report labels).
std::string_view toString(PvtStrategy s);

/// Hyper-parameters of Algorithm 1, shared by every corner of the pool.
struct ExplorerConfig {
  std::size_t initSamples = 12;   ///< N of Algorithm 1 line 2 (>= 1)
  std::size_t mcSamples = 800;    ///< m of line 10 (>= 1)
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
  TrustRegionConfig trustRegion;  ///< radius schedule (paper IV-C)
  SurrogateConfig surrogate;      ///< f_NN architecture and training
  /// Weight of the planner's margin bonus (ValueFunction::plannerScore; 0
  /// disables the paper's optional second-stage value, IV-D).
  double marginBonus = 0.02;
  /// When set, the search's first init sample is this point (snapped; it
  /// draws no rng) — the process-porting "starting point sharing" strategy
  /// (Table II).
  std::optional<linalg::Vector> startingPoint;
  /// When set, every corner surrogate starts from these weights when it is
  /// built instead of its random init — the porting "weight sharing"
  /// strategy (Table II). Not owned: must outlive the search.
  const nn::Mlp* warmStartWeights = nullptr;
};

/// Parameters of the progressive PVT search. None of them is a thread count:
/// a search stepped inside a pool task (a scheduler round, or the caller's
/// own common::ThreadPool) fans a TRM step's surrogate fits, candidate
/// scoring and corner simulations out on that pool
/// (common::ThreadPool::current()), and runs inline off a pool. Results
/// merge in corner order, so the outcome is identical for any pool size,
/// but the evaluation callback must be thread-safe (every circuits::
/// evaluator is; it builds its own testbench per call).
struct PvtSearchConfig {
  PvtStrategy strategy = PvtStrategy::kProgressiveHardest;  ///< pool policy
  ExplorerConfig explorer;       ///< per-corner surrogate/TRM settings
  std::uint64_t seed = 1;        ///< seed for corner choice and exploration
  /// Memoize evaluations on (snapped grid indices, corner id) in the eval
  /// engine. Cache hits cost zero EDA blocks (tallied separately in the
  /// ledger/stats); the seeded search trajectory — solved flag, sizes,
  /// totalSims, corner evals, ledger block sequence — is bitwise identical
  /// with the cache on or off, provided the evaluation callback is a pure
  /// function of the snapped sizes (every circuits:: evaluator is). Turn it
  /// off for impure or stateful callbacks (e.g. per-call noise injection),
  /// which must see every request.
  bool cacheEvals = true;
};

/// Result of one progressive PVT search run.
struct PvtSearchOutcome {
  bool solved = false;        ///< every corner met spec at sign-off
  /// Logical evaluations consumed (search + verify). With caching on, hits
  /// count here (the budget is charged identically) but consume no EDA time
  /// — see evalStats.simulated for the real block count.
  std::size_t totalSims = 0;
  /// The solving sizing — or, while unsolved, the best point so far: the one
  /// with the highest worst-corner Value over the corners it was simulated
  /// on (empty until some point simulates cleanly on all of them).
  linalg::Vector sizes;
  double bestValue = kFailedValue;  ///< worst-corner Value of `sizes`
  EvalResult bestEval;              ///< its worst corner's evaluation
  std::vector<EvalResult> cornerEvals;  ///< sign-off measurements (solved)
  std::size_t cornersActivated = 0;     ///< pool size at termination
  pvt::EdaLedger ledger;                ///< per-block accounting (Table III)
  eval::EvalStats evalStats;            ///< cache hit/miss + backend timing
};

/// Algorithm 1 over a progressive corner pool (paper IV-E).
///
/// The search is a resumable state machine: run() advances it until the
/// cumulative logical budget `maxSims` is reached (budget checks sit exactly
/// where the original single-pass loop had them), so a run paused by a
/// smaller budget — or killed and restored from a checkpoint — continues to
/// the same outcome, ledger and stats, bit for bit, as an
/// uninterrupted run. save()/restore() carry the full state as one blob:
/// per-corner surrogates (weights + Adam moments + scalers), trajectories,
/// trust-region radius, RNG stream, eval-engine memo and accounting, and the
/// loop position itself.
class PvtSearch {
 public:
  /// The problem is copied (callbacks + metadata), so temporaries are safe.
  /// Throws std::invalid_argument when config.explorer.initSamples or
  /// mcSamples is 0.
  PvtSearch(SizingProblem problem, PvtSearchConfig config);

  /// Advance until all corners sign off or `maxSims` cumulative logical EDA
  /// blocks are consumed. May be called again with a larger budget to
  /// continue the same search (the outcome so far is returned either way).
  PvtSearchOutcome run(std::size_t maxSims);

  /// The engine all evaluations route through (cache/ledger inspection).
  const eval::EvalEngine& engine() const { return engine_; }
  /// Mutable engine access (orchestrator shared-cache attachment/publish —
  /// see opt::Strategy and eval::SharedEvalCache).
  eval::EvalEngine& engine() { return engine_; }

  /// The configuration this search runs under.
  const PvtSearchConfig& config() const { return config_; }

  /// Corner `corner`'s surrogate (for porting: save its weights), or null
  /// while that corner is inactive or has not been built yet.
  const SpiceSurrogate* surrogate(std::size_t corner) const;

  /// Snapshot the full search state as one checkpoint blob (TDCK container
  /// bytes, kind "pvt-search"); a file holding it is a checkpoint file.
  std::string save() const;
  /// Restore a blob written by save(); the next run() continues bitwise.
  /// `source` labels error messages. The search must have been constructed
  /// with the same problem and configuration (specs and corner conditions
  /// included) — mismatches throw io::CheckpointError. A blob that fails the
  /// container check leaves the search untouched; any later failure resets
  /// it to its freshly-constructed state, never left half-restored.
  void restore(const std::string& blob, const std::string& source);

 private:
  struct CornerState {
    std::size_t index = 0;
    std::unique_ptr<SpiceSurrogate> surrogate;  // built on first good sample
    LocalDataset data;  ///< this corner's trajectory (unit space)
  };

  /// One fully-evaluated candidate (evals parallel to the active pool).
  struct Point {
    linalg::Vector sizes;
    linalg::Vector unit;
    std::vector<EvalResult> evals;
    double value = kFailedValue;
  };

  /// Where the search loop stands between two budget checks.
  enum class Phase : std::uint8_t {
    kEpisodeStart,  ///< about to reset the center and start init sampling
    kInitSample,    ///< inside Algorithm 1 line 2 (one sample per step)
    kTrmStep,       ///< alternating train/plan/evaluate TRM iterations
    kDone,          ///< solved — run() returns immediately
  };

  /// Evaluate `sizes` on several corners through the engine (batched,
  /// memoized, thread-parallel with request-order merge) and charge the
  /// logical budget.
  std::vector<EvalResult> evalCorners(const std::vector<std::size_t>& corners,
                                      const linalg::Vector& sizes,
                                      pvt::BlockKind kind);

  /// min over active corners of Value(eval) for an already-evaluated point.
  double poolValue(const std::vector<EvalResult>& evals) const;

  /// Keep `sizes` as the outcome's best point when its worst-corner Value
  /// over `evals` (its results; ties keep the first) beats the best so far.
  void considerBest(const linalg::Vector& sizes,
                    const std::vector<EvalResult>& evals);

  /// Seed the active pool per the configured strategy (one rng_ draw for the
  /// random strategy) and reset per-run engine accounting.
  void initialize();
  /// Add corner `idx` to the active pool (idempotent).
  void activate(std::size_t idx);
  /// Build surrogates for active corners that lack one (measDim_ known),
  /// warm-started from `explorer.warmStartWeights` when set.
  void ensureSurrogates(std::size_t measDim);
  /// SPICE a raw point on the whole active pool + bookkeeping.
  Point evaluatePoint(const linalg::Vector& rawSizes);
  /// Every active-corner eval converged and satisfied the specs.
  bool poolSatisfied(const Point& p) const;
  /// Verify inactive corners; true when all pass (search solved), otherwise
  /// activates the failing corner with the lowest value.
  bool verifyAndExpand(const Point& p);
  /// After `p` is simulated on the pool: verify the other corners when the
  /// pool is satisfied (true when that solves the search), and keep the best
  /// point over every corner `p` was simulated on.
  bool signOff(const Point& p);

  /// Advance one state-machine step (at most one budget-checked unit of
  /// work — one init sample or one full TRM iteration; the budget check
  /// itself lives in run()'s loop condition).
  void stepOnce();
  void stepInitSample();
  void stepTrm();

  /// restore() body; restore() wraps it to reset on failure.
  void restoreSections(const io::CheckpointReader& r);

  SizingProblem problem_;
  PvtSearchConfig config_;
  ValueFunction value_;
  eval::EvalEngine engine_;
  std::vector<CornerState> active_;
  std::mt19937_64 rng_;

  // ---- Resumable loop state (all of it lands in checkpoints) ----
  bool initialized_ = false;
  Phase phase_ = Phase::kEpisodeStart;
  std::size_t initK_ = 0;          ///< init samples taken this episode
  bool haveCenter_ = false;
  Point center_;
  TrustRegion tr_;
  std::size_t sinceRestart_ = 0;
  std::size_t sinceImprovement_ = 0;
  std::size_t trmSteps_ = 0;       ///< completed TRM steps
  std::vector<char> isActive_;     ///< per-corner active flag
  std::optional<std::size_t> measDim_;
  PvtSearchOutcome result_;        ///< outcome accumulated so far

  // Training/planning/evaluation scratch, reused across TRM steps.
  std::vector<SpiceSurrogate*> fitting_;        ///< surrogates this step fits
  std::vector<const SpiceSurrogate*> scoring_;  ///< surrogates that plan
  CandidatePlanner planner_;
  std::vector<std::size_t> cornerIdxScratch_;
};

}  // namespace trdse::core
