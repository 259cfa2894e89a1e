// Proximal Policy Optimization (Schulman et al., 2017) — Table I baseline.
// Clipped-surrogate objective with GAE, multiple epochs of shuffled
// mini-batches per rollout (shuffled by their own stream, seed + 53),
// entropy bonus and gradient clipping. Rollouts come from a
// ParallelRolloutCollector; each mini-batch runs as batched forward/backward
// passes.
#pragma once

#include <random>

#include "core/problem.hpp"
#include "nn/optimizer.hpp"
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"

namespace trdse::rl {

/// Hyper-parameters of the PPO baseline trainer.
struct PpoConfig {
  std::size_t horizon = 192;        ///< transitions per update, all envs
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
  EnvConfig env;                    ///< sizing-environment parameters
  std::uint64_t seed = 1;           ///< base seed for envs, nets and sampling
};

/// All PPO epochs/mini-batches for one rollout: each mini-batch is gathered
/// into matrices and runs one forwardBatch/backwardBatch pass per network.
/// `rng` drives the mini-batch shuffles. Bitwise identical to the
/// per-sample forward/backward loop (tests/rl_batch_test.cpp keeps it as
/// the reference).
void ppoUpdateBatched(nn::Mlp& policy, nn::Mlp& critic,
                      nn::AdamOptimizer& policyOpt,
                      nn::AdamOptimizer& criticOpt,
                      const FlatRollout& data, const PpoConfig& cfg,
                      std::mt19937_64& rng);

}  // namespace trdse::rl
