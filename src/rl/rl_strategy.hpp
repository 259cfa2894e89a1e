// The RL-policy baseline as a schedulable opt::Strategy.
//
// A multi-head categorical policy (and scalar critic) rolls episodes on the
// AutoCkt-style SizingEnvs of a ParallelRolloutCollector — four environments
// per simulator pass on a registry circuit — improving itself with
// synchronous A2C updates (a2cUpdateBatched) every nSteps transitions: the
// Table I A2C baseline's learner (rl/learner.hpp), repackaged as a
// budget-sliced, resumable search. Every environment request is one logical
// EvalEngine request, so RL jobs charge EDA blocks through the same meter
// (ledger + EvalStats) as the model-based and BO strategies.
//
// Resumability: all state (env grid positions, policy/critic weights, Adam
// moments, the partial rollout, RNG streams) lives in the learner and
// advances one request at a time, so step(k); step(n) == step(n) bitwise,
// and a checkpoint blob taken at any step boundary (the learner's
// "rl-trainer" snapshot, tagged "rl_policy") restores into a fresh strategy
// that continues bitwise.
#pragma once

#include "opt/strategy.hpp"
#include "rl/learner.hpp"

namespace trdse::rl {

/// Knobs of the policy-driven strategy.
struct RlPolicyConfig {
  /// The A2C update and environment shaping. nSteps counts transitions over
  /// all environments (an update waits for the end of the tick that reaches
  /// it). The strategy's seed replaces a2c.seed.
  A2cConfig a2c = [] {
    A2cConfig c;
    c.nSteps = 32;
    c.hidden = 32;
    return c;
  }();
};

/// Policy-gradient search over an RlLearner behind the Strategy contract.
class RlPolicyStrategy final : public opt::Strategy {
 public:
  /// The problem is copied and owned (the envs keep a reference into it).
  /// Uses the problem's first corner, like every Table I baseline. The
  /// learner's streams are common::perTaskSeed(seed, k): k = 3 for the
  /// environments, 2 for policy sampling, 0 and 1 for the two networks.
  RlPolicyStrategy(core::SizingProblem problem, const RlPolicyConfig& config,
                   std::uint64_t seed, std::size_t budget);

  std::string_view name() const override { return "rl_policy"; }
  std::size_t budget() const override { return budget_; }
  const opt::StrategyOutcome& step(std::size_t target) override;
  const opt::StrategyOutcome& outcome() const override { return result_; }
  bool finished() const override;
  eval::EvalEngine& engine() override { return learner_.engine(); }

  bool supportsCheckpoint() const override { return true; }
  std::string saveCheckpointBlob() const override { return learner_.save(); }
  void restoreCheckpointBlob(const std::string& blob,
                             const std::string& source) override;

 private:
  /// Refresh the outcome from the learner.
  void harvest();

  /// Owned copy — the envs hold a reference into it, so the strategy is
  /// neither copyable nor movable (enforced by the Strategy base anyway).
  core::SizingProblem problem_;
  RlLearner learner_;
  std::size_t budget_ = 0;
  opt::StrategyOutcome result_;
};

}  // namespace trdse::rl
