// Proximal Policy Optimization (Schulman et al., 2017) — Table I baseline.
// Clipped-surrogate objective with GAE, multiple epochs of shuffled
// mini-batches per rollout, entropy bonus and gradient clipping. Rollouts
// come from a ParallelRolloutCollector; each mini-batch runs as batched
// forward/backward passes.
#pragma once

#include <random>

#include "core/problem.hpp"
#include "nn/optimizer.hpp"
#include "rl/a2c.hpp"  // RlTrainOutcome
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"

namespace trdse::rl {

/// Hyper-parameters of the PPO baseline trainer.
struct PpoConfig {
  std::size_t horizon = 192;        ///< rollout steps per env per update
  std::size_t epochs = 4;           ///< optimization epochs per rollout
  std::size_t minibatch = 32;       ///< shuffled mini-batch size
  double gamma = 0.99;              ///< discount factor
  double gaeLambda = 0.95;          ///< GAE(lambda) mixing coefficient
  double clipRatio = 0.2;           ///< clipped-surrogate epsilon
  double learningRate = 3e-4;       ///< policy Adam step size
  double valueLearningRate = 1e-3;  ///< critic Adam step size
  double entropyCoeff = 0.01;       ///< entropy-bonus weight
  double maxGradNorm = 0.5;         ///< L2 gradient clip threshold
  std::size_t hidden = 64;          ///< hidden width of policy/critic MLPs
  /// Parallel rollout environments. With 1 the collection loop is serial,
  /// but runs are NOT bitwise comparable to the pre-collector PPO trainer:
  /// that trainer drew mini-batch shuffles from the action-sampling RNG,
  /// whereas shuffles now use their own stream (seed + 53).
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
  /// Write a trainer checkpoint (networks, Adam moments, env/RNG state,
  /// shuffle stream) to `checkpointPath` every N updates (0 = off).
  std::size_t checkpointEvery = 0;
  /// Destination of the periodic snapshots.
  std::string checkpointPath;
  /// Restore this checkpoint before training; the continued run reproduces
  /// the uninterrupted one bitwise (docs/CHECKPOINTS.md).
  std::string resumeFrom;
};

/// Train on the problem's first corner until a satisfying design is found or
/// the simulation budget is exhausted.
RlTrainOutcome trainPpo(const core::SizingProblem& problem, const PpoConfig& cfg,
                        std::size_t maxSimulations);

/// All PPO epochs/mini-batches for one rollout: each mini-batch is gathered
/// into matrices and runs one forwardBatch/backwardBatch pass per network.
/// `rng` drives the mini-batch shuffles. Bitwise identical to the
/// per-sample forward/backward loop (tests/rl_batch_test.cpp keeps it as
/// the reference).
void ppoUpdateBatched(nn::Mlp& policy, nn::Mlp& critic,
                      nn::Optimizer& policyOpt, nn::Optimizer& criticOpt,
                      const FlatRollout& data, const PpoConfig& cfg,
                      std::mt19937_64& rng);

}  // namespace trdse::rl
