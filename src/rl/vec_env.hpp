// Parallel multi-environment rollout collection for the model-free baselines
// (AutoCkt-style vectorized trajectory sampling).
//
// N independent SizingEnv instances advance concurrently on a shared
// ThreadPool; each environment owns its RNG streams (common::perTaskSeed per
// environment index) and writes into its own RolloutBuffer, and the buffers
// are merged in environment order after the join. Trajectories therefore do
// not depend on the thread count or on how workers were scheduled, and a
// single-environment collector reproduces the original serial collection
// loop bitwise (environment 0 keeps the legacy seed derivation; note the
// PPO caveat on PpoConfig::numEnvs — its legacy trainer shared one RNG
// between action sampling and mini-batch shuffling).
//
// With more than one worker thread the problem's `evaluate` callback runs
// concurrently from several environments and must be thread-safe (every
// circuits:: evaluator is; it builds its own testbench per call).
#pragma once

#include <memory>
#include <random>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/mlp.hpp"
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"

namespace trdse::rl {

/// Aggregate statistics of one collection round across all environments.
struct CollectStats {
  /// Some environment reached a satisfying design during the round.
  bool anySolved = false;
  /// Best completed-episode return observed this round (-1e18 when no
  /// episode finished).
  double bestEpisodeReturn = -1e18;
  /// Transitions collected over all environments.
  std::size_t steps = 0;
};

/// Collects trajectories from N sizing environments concurrently.
///
/// Environment state (grid position, episode progress, RNG streams) persists
/// across collection rounds, exactly as a single environment's state persists
/// across the serial trainer's outer iterations.
class ParallelRolloutCollector {
 public:
  /// @param numEnvs  number of independent environments (>= 1).
  /// @param threads  threads for collection, the caller included: 1 runs
  ///                 inline (serial), 0 uses the hardware concurrency.
  /// @param seed     base seed; environment 0 uses it verbatim (legacy
  ///                 stream), environment e > 0 uses perTaskSeed(seed, e).
  /// @param rngSalt  offset applied to `seed` for the policy-sampling RNG
  ///                 streams (each trainer keeps its historical salt).
  /// @param initialReset  run the initial per-env reset (one simulation
  ///                 each). Trainers that restore a checkpoint right after
  ///                 construction pass false — the restored state replaces
  ///                 everything, so those simulations would be pure waste.
  ParallelRolloutCollector(const core::SizingProblem& problem,
                           const EnvConfig& envConfig, std::size_t numEnvs,
                           std::size_t threads, std::uint64_t seed,
                           std::uint64_t rngSalt, bool initialReset = true);

  /// Number of managed environments.
  std::size_t numEnvs() const { return slots_.size(); }
  /// Observation dimensionality (shared by all environments).
  std::size_t observationDim() const;
  /// Number of categorical action heads (one per sizing parameter).
  std::size_t actionHeads() const;

  /// Run one collection round: every environment takes up to `stepsPerEnv`
  /// policy-sampled steps (stopping early when it solves or when its
  /// deterministic share of the remaining `maxTotalSims` simulation budget
  /// is exhausted) and fills buffers[e] with its fragment, including the
  /// critic bootstrap value for an unfinished tail episode. `buffers` is
  /// resized to one buffer per environment.
  CollectStats collect(const nn::Mlp& policy, const nn::Mlp& critic,
                       std::size_t stepsPerEnv, std::size_t maxTotalSims,
                       std::vector<RolloutBuffer>& buffers);

  /// Total SPICE simulations consumed across all environments.
  std::size_t totalSimulations() const;
  /// Whether any environment has produced a satisfying design.
  bool solved() const { return solveSims_ > 0; }
  /// Total simulations at the end of the first solving round (0 when never
  /// solved). For a single environment this equals the environment's own
  /// sims-at-first-solve because collection stops at the solving step.
  std::size_t simsAtFirstSolve() const { return solveSims_; }

  /// Serialize every environment slot — env state, policy-sampling RNG,
  /// pending observation, open-episode return — plus the solve marker into a
  /// checkpoint section. Restoring resumes collection bitwise.
  void saveState(io::SectionWriter& w) const;
  /// Restore state written by saveState; the collector must have been built
  /// with the same numEnvs (mismatch throws io::CheckpointError).
  void restoreState(io::SectionReader& r);

 private:
  /// Per-environment persistent state (env, RNG stream, pending observation).
  struct EnvSlot {
    EnvSlot(const core::SizingProblem& problem, const EnvConfig& cfg,
            std::uint64_t envSeed, std::uint64_t rngSeed)
        : env(problem, cfg, envSeed), rng(rngSeed) {}
    SizingEnv env;
    std::mt19937_64 rng;        // policy-sampling stream
    linalg::Vector obs;         // observation awaiting the next action
    double episodeReturn = 0.0; // running return of the open episode
    bool needsReset = false;    // solved last round; reset on next collect
  };

  std::vector<std::unique_ptr<EnvSlot>> slots_;
  common::ThreadPool pool_;
  std::size_t solveSims_ = 0;
};

}  // namespace trdse::rl
