#include "rl/rl_strategy.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"

namespace trdse::rl {

namespace {

A2cConfig toUpdateConfig(const RlPolicyConfig& cfg) {
  A2cConfig u;
  u.gamma = cfg.gamma;
  u.gaeLambda = cfg.gaeLambda;
  u.learningRate = cfg.learningRate;
  u.valueLearningRate = cfg.valueLearningRate;
  u.entropyCoeff = cfg.entropyCoeff;
  u.maxGradNorm = cfg.maxGradNorm;
  u.hidden = cfg.hidden;
  return u;
}

EnvConfig withLedger(EnvConfig env) {
  env.recordLedger = true;  // common block-level accounting
  return env;
}

}  // namespace

RlPolicyStrategy::RlPolicyStrategy(core::SizingProblem problem,
                                   RlPolicyConfig config, std::uint64_t seed,
                                   std::size_t budget)
    : problem_(std::move(problem)),
      config_(config),
      updateCfg_(toUpdateConfig(config)),
      collector_(problem_, withLedger(config.env),
                 common::perTaskSeed(seed, 3), common::perTaskSeed(seed, 2)),
      policy_(makePolicyNet(collector_.observationDim(),
                            collector_.actionHeads(),
                            SizingEnv::kActionsPerHead, config.hidden,
                            common::perTaskSeed(seed, 0))),
      critic_(makeValueNet(collector_.observationDim(), config.hidden,
                           common::perTaskSeed(seed, 1))),
      policyOpt_(config.learningRate),
      criticOpt_(config.valueLearningRate),
      budget_(budget) {}

bool RlPolicyStrategy::finished() const {
  return result_.solved || result_.iterations >= budget_;
}

const opt::StrategyOutcome& RlPolicyStrategy::step(std::size_t target) {
  collector_.run(policy_, critic_, config_.nSteps, config_.gamma,
                 config_.gaeLambda, std::min(target, budget_),
                 [this](const FlatRollout& data) {
                   if (config_.train)
                     a2cUpdateBatched(policy_, critic_, policyOpt_,
                                      criticOpt_, data, updateCfg_);
                   return true;
                 });
  result_.solved = collector_.solved();
  result_.iterations = collector_.totalSimulations();
  result_.bestValue = collector_.bestValue();
  result_.sizes = collector_.bestSizes();
  result_.evalStats = engine().stats();
  // The ledger grows with the budget; snapshot it once, at the end.
  if (finished()) result_.ledger = engine().ledger();
  return result_;
}

}  // namespace trdse::rl
