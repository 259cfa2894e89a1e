// Advantage Actor-Critic (Mnih et al., 2016) — Table I baseline.
// Synchronous variant with n-step GAE advantages, entropy regularization and
// gradient-norm clipping, as in Stable-Baselines' A2C. Rollouts come from a
// ParallelRolloutCollector (N environments, deterministic env-order merge);
// the gradient step is one batched forward/backward pass per network.
#pragma once

#include "core/problem.hpp"
#include "nn/optimizer.hpp"
#include "rl/actor_critic.hpp"
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"

namespace trdse::rl {

/// Hyper-parameters of the A2C baseline trainer.
struct A2cConfig {
  std::size_t nSteps = 16;          ///< rollout steps per env per update
  double gamma = 0.99;              ///< discount factor
  double gaeLambda = 0.95;          ///< GAE(lambda) mixing coefficient
  double learningRate = 7e-4;       ///< policy Adam step size
  double valueLearningRate = 7e-4;  ///< critic Adam step size
  double entropyCoeff = 0.01;       ///< entropy-bonus weight
  double maxGradNorm = 0.5;         ///< L2 gradient clip threshold
  std::size_t hidden = 64;          ///< hidden width of policy/critic MLPs
  /// Parallel rollout environments (1 reproduces the pre-collector serial
  /// trainer bitwise).
  std::size_t numEnvs = 1;
  /// Worker threads for rollout collection: 1 = inline, 0 = hardware
  /// concurrency. Trajectories are thread-count invariant, but with more
  /// than one worker the problem's evaluate callback must be thread-safe.
  std::size_t rolloutThreads = 1;
  EnvConfig env;                    ///< sizing-environment parameters
  std::uint64_t seed = 1;           ///< base seed for envs, nets and sampling
  /// Stop after this many policy updates (0 = unlimited) — pauses a run at
  /// an update boundary so it can be checkpointed and resumed bitwise.
  std::size_t maxUpdates = 0;
  /// Write a trainer checkpoint (networks, Adam moments, env/RNG state) to
  /// `checkpointPath` every N completed updates (0 = off).
  std::size_t checkpointEvery = 0;
  /// Destination of the periodic snapshots.
  std::string checkpointPath;
  /// Restore this checkpoint before training; the continued run reproduces
  /// the uninterrupted one bitwise (docs/CHECKPOINTS.md).
  std::string resumeFrom;
};

/// Result of one model-free training run (shared by A2C / PPO / TRPO).
struct RlTrainOutcome {
  bool solved = false;                 ///< a satisfying design was found
  std::size_t simulationsToSolve = 0;  ///< sims at the first satisfying design
  std::size_t totalSimulations = 0;    ///< sims consumed over the whole run
  double bestEpisodeReturn = 0.0;      ///< best completed-episode return
};

/// Train on the problem's first corner until a satisfying design is found or
/// the simulation budget is exhausted.
RlTrainOutcome trainA2c(const core::SizingProblem& problem, const A2cConfig& cfg,
                        std::size_t maxSimulations);

/// One synchronous A2C gradient step over a flattened rollout: one
/// forwardBatch/backwardBatch pass per network. Bitwise identical to the
/// per-sample forward/backward loop (tests/rl_batch_test.cpp keeps it as
/// the reference).
void a2cUpdateBatched(nn::Mlp& policy, nn::Mlp& critic,
                      nn::Optimizer& policyOpt, nn::Optimizer& criticOpt,
                      const FlatRollout& data, const A2cConfig& cfg);

}  // namespace trdse::rl
