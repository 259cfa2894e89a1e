// Advantage Actor-Critic (Mnih et al., 2016) — Table I baseline.
// Synchronous variant with n-step GAE advantages, entropy regularization and
// gradient-norm clipping, as in Stable-Baselines' A2C. Rollouts come from a
// ParallelRolloutCollector (one environment per simulator lane, env-order
// merge); the gradient step is one batched forward/backward pass per
// network.
#pragma once

#include "core/problem.hpp"
#include "nn/optimizer.hpp"
#include "rl/actor_critic.hpp"
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"

namespace trdse::rl {

/// Hyper-parameters of the A2C baseline trainer.
struct A2cConfig {
  std::size_t nSteps = 16;          ///< transitions per update, all envs
  double gamma = 0.99;              ///< discount factor
  double gaeLambda = 0.95;          ///< GAE(lambda) mixing coefficient
  double learningRate = 7e-4;       ///< policy Adam step size
  double valueLearningRate = 7e-4;  ///< critic Adam step size
  double entropyCoeff = 0.01;       ///< entropy-bonus weight
  double maxGradNorm = 0.5;         ///< L2 gradient clip threshold
  std::size_t hidden = 64;          ///< hidden width of policy/critic MLPs
  EnvConfig env;                    ///< sizing-environment parameters
  std::uint64_t seed = 1;           ///< base seed for envs, nets and sampling
};

/// One synchronous A2C gradient step over a flattened rollout: one
/// forwardBatch/backwardBatch pass per network. Bitwise identical to the
/// per-sample forward/backward loop (tests/rl_batch_test.cpp keeps it as
/// the reference).
void a2cUpdateBatched(nn::Mlp& policy, nn::Mlp& critic,
                      nn::AdamOptimizer& policyOpt,
                      nn::AdamOptimizer& criticOpt,
                      const FlatRollout& data, const A2cConfig& cfg);

}  // namespace trdse::rl
