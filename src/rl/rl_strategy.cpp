#include "rl/rl_strategy.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"

namespace trdse::rl {

namespace {

A2cConfig strategyAlgorithm(const RlPolicyConfig& config, std::uint64_t seed) {
  A2cConfig a2c = config.a2c;
  a2c.seed = seed;
  return a2c;
}

}  // namespace

RlPolicyStrategy::RlPolicyStrategy(core::SizingProblem problem,
                                   const RlPolicyConfig& config,
                                   std::uint64_t seed, std::size_t budget)
    : problem_(std::move(problem)),
      learner_(problem_, strategyAlgorithm(config, seed), "rl_policy",
               {common::perTaskSeed(seed, 3), common::perTaskSeed(seed, 2),
                common::perTaskSeed(seed, 0), common::perTaskSeed(seed, 1)}),
      budget_(budget) {}

bool RlPolicyStrategy::finished() const {
  return result_.solved || result_.iterations >= budget_;
}

const opt::StrategyOutcome& RlPolicyStrategy::step(std::size_t target) {
  learner_.run(std::min(target, budget_));
  harvest();
  return result_;
}

void RlPolicyStrategy::restoreCheckpointBlob(const std::string& blob,
                                             const std::string& source) {
  learner_.restore(blob, source);
  result_ = opt::StrategyOutcome{};
  harvest();
}

void RlPolicyStrategy::harvest() {
  const ParallelRolloutCollector& c = learner_.collector();
  result_.solved = c.solved();
  result_.iterations = c.totalSimulations();
  result_.bestValue = c.bestValue();
  result_.sizes = c.bestSizes();
  result_.evalStats = engine().stats();
  // The ledger grows with the budget; snapshot it once, at the end.
  if (finished()) result_.ledger = engine().ledger();
}

}  // namespace trdse::rl
