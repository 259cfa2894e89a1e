// The RL-policy baseline as a schedulable opt::Strategy.
//
// A multi-head categorical policy (and scalar critic) rolls episodes on the
// AutoCkt-style SizingEnvs of a ParallelRolloutCollector — four environments
// per simulator pass on a registry circuit — improving itself with
// synchronous A2C updates (a2cUpdateBatched) every nSteps transitions: the
// Table I A2C baseline's rollout loop and update rule, repackaged as a
// budget-sliced, resumable search. Every environment request is one logical
// EvalEngine request, so RL jobs charge EDA blocks through the same meter
// (ledger + EvalStats) as the model-based and BO strategies.
//
// Resumability: all state (env grid positions, policy/critic weights, Adam
// moments, the partial rollout, RNG streams) lives in members and advances
// one request at a time, so step(k); step(n) == step(n) bitwise.
#pragma once

#include "nn/optimizer.hpp"
#include "opt/strategy.hpp"
#include "rl/a2c.hpp"
#include "rl/vec_env.hpp"

namespace trdse::rl {

/// Knobs of the policy-driven strategy (a compact slice of A2cConfig plus
/// the environment shaping).
struct RlPolicyConfig {
  std::size_t hidden = 32;     ///< hidden width of policy/critic MLPs
  /// Transitions per policy update, counted over all environments (an
  /// update waits for the end of the tick that reaches it).
  std::size_t nSteps = 32;
  double gamma = 0.99;         ///< discount factor
  double gaeLambda = 0.95;     ///< GAE(lambda) mixing coefficient
  double learningRate = 7e-4;  ///< policy Adam step size
  double valueLearningRate = 7e-4;  ///< critic Adam step size
  double entropyCoeff = 0.01;  ///< entropy-bonus weight
  double maxGradNorm = 0.5;    ///< L2 gradient clip threshold
  /// Learn while searching. Off = pure inference rollouts of the seeded
  /// random-init policy (the untrained-policy ablation).
  bool train = true;
  EnvConfig env;  ///< environment shaping (recordLedger is forced on)
};

/// Policy-gradient search over a ParallelRolloutCollector behind the
/// Strategy contract.
class RlPolicyStrategy final : public opt::Strategy {
 public:
  /// The problem is copied and owned (the envs keep a reference into it).
  /// Uses the problem's first corner, like every Table I baseline.
  RlPolicyStrategy(core::SizingProblem problem, RlPolicyConfig config,
                   std::uint64_t seed, std::size_t budget);

  std::string_view name() const override { return "rl_policy"; }
  std::size_t budget() const override { return budget_; }
  const opt::StrategyOutcome& step(std::size_t target) override;
  const opt::StrategyOutcome& outcome() const override { return result_; }
  bool finished() const override;
  eval::EvalEngine& engine() override { return collector_.engine(); }

 private:
  /// Owned copy — the envs hold a reference into it, so the strategy is
  /// neither copyable nor movable (enforced by the Strategy base anyway).
  core::SizingProblem problem_;
  RlPolicyConfig config_;
  A2cConfig updateCfg_;  ///< the slice of config_ the A2C update consumes
  ParallelRolloutCollector collector_;
  nn::Mlp policy_;
  nn::Mlp critic_;
  nn::AdamOptimizer policyOpt_;
  nn::AdamOptimizer criticOpt_;
  std::size_t budget_ = 0;
  opt::StrategyOutcome result_;
};

}  // namespace trdse::rl
