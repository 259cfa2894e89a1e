#include <gtest/gtest.h>

#include <cmath>

#include "rl/a2c.hpp"
#include "rl/actor_critic.hpp"
#include "rl/learner.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"
#include "rl/trpo.hpp"

namespace trdse::rl {
namespace {

/// 1-D toy problem: feasible band around x = 0.8.
core::SizingProblem bandProblem() {
  core::SizingProblem p;
  p.name = "band";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 65, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.93}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const linalg::Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    r.measurements = {1.0 - std::abs(v[0] - 0.8)};
    return r;
  };
  return p;
}

TEST(SizingEnv, ObservationShape) {
  const auto prob = bandProblem();
  const auto engine = makeEnvEngine(prob);
  SizingEnv env(prob, {}, 1, *engine);
  const auto obs = env.reset();
  EXPECT_EQ(obs.size(), env.observationDim());
  EXPECT_EQ(env.observationDim(), 1u + 2u * 1u);
  EXPECT_EQ(env.actionHeads(), 1u);
}

TEST(SizingEnv, ActionsMoveParameters) {
  const auto prob = bandProblem();
  EnvConfig cfg;
  cfg.episodeLength = 1000;
  const auto engine = makeEnvEngine(prob);
  SizingEnv env(prob, cfg, 2, *engine);
  env.reset();
  const double x0 = env.currentSizes()[0];
  env.step({2});  // increment
  const double x1 = env.currentSizes()[0];
  EXPECT_GT(x1, x0);
  env.step({0});  // decrement back
  EXPECT_NEAR(env.currentSizes()[0], x0, 1e-12);
  env.step({1});  // hold
  EXPECT_NEAR(env.currentSizes()[0], x0, 1e-12);
}

TEST(SizingEnv, ClampsAtGridEdges) {
  const auto prob = bandProblem();
  const auto engine = makeEnvEngine(prob);
  SizingEnv env(prob, {}, 3, *engine);
  env.reset();
  for (int i = 0; i < 100; ++i) env.step({0});
  EXPECT_NEAR(env.currentSizes()[0], 0.0, 1e-12);
}

TEST(SizingEnv, SolveGivesBonusAndTerminates) {
  const auto prob = bandProblem();
  EnvConfig cfg;
  cfg.episodeLength = 500;
  const auto engine = makeEnvEngine(prob);
  SizingEnv env(prob, cfg, 4, *engine);
  env.reset();
  StepResult last;
  for (int i = 0; i < 500; ++i) {
    // March toward 0.8 from wherever we started.
    const double x = env.currentSizes()[0];
    last = env.step({x < 0.8 ? std::size_t{2} : std::size_t{0}});
    if (last.done) break;
  }
  EXPECT_TRUE(last.solved);
  EXPECT_GT(last.reward, 5.0);  // includes the solve bonus
  EXPECT_GT(env.simsAtFirstSolve(), 0u);
}

TEST(SizingEnv, CountsSimulations) {
  const auto prob = bandProblem();
  const auto engine = makeEnvEngine(prob);
  SizingEnv env(prob, {}, 5, *engine);
  env.reset();
  env.step({1});
  env.step({1});
  EXPECT_EQ(env.simulationsUsed(), 3u);  // reset + 2 steps
}

TEST(ActorCritic, JointLogProbConsistent) {
  const linalg::Vector logits = {0.1, 0.5, -0.2, 1.0, 0.0, -1.0};
  const std::vector<std::size_t> actions = {1, 0};
  const double lp = jointLogProb(logits, actions, 3);
  EXPECT_LT(lp, 0.0);
  // Gradient sums to zero per head.
  const linalg::Vector g = jointLogProbGrad(logits, actions, 3);
  EXPECT_NEAR(g[0] + g[1] + g[2], 0.0, 1e-12);
  EXPECT_NEAR(g[3] + g[4] + g[5], 0.0, 1e-12);
}

TEST(ActorCritic, KlZeroOnIdenticalLogits) {
  const linalg::Vector logits = {0.1, 0.5, -0.2, 1.0, 0.0, -1.0};
  EXPECT_NEAR(jointKl(logits, logits, 3), 0.0, 1e-12);
  const linalg::Vector g = jointKlGrad(logits, logits, 3);
  for (double v : g) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(ActorCritic, EntropyGradMatchesFiniteDifference) {
  const linalg::Vector logits = {0.3, -0.7, 0.2};
  const linalg::Vector g = jointEntropyGrad(logits, 3);
  constexpr double kEps = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    linalg::Vector lp = logits;
    lp[i] += kEps;
    linalg::Vector lm = logits;
    lm[i] -= kEps;
    const double numeric =
        (jointEntropy(lp, 3) - jointEntropy(lm, 3)) / (2 * kEps);
    EXPECT_NEAR(g[i], numeric, 1e-6);
  }
}

TEST(Rollout, GaeMatchesHandComputation) {
  RolloutBuffer buf;
  // Two-step episode, gamma = 0.5, lambda = 1 -> plain discounted returns.
  Transition t1;
  t1.reward = 1.0;
  t1.valueEstimate = 0.0;
  t1.done = false;
  Transition t2;
  t2.reward = 2.0;
  t2.valueEstimate = 0.0;
  t2.done = true;
  buf.transitions = {t1, t2};
  buf.bootstrapValue = 99.0;  // ignored: last transition done
  const auto adv = computeGae(buf, 0.5, 1.0);
  EXPECT_NEAR(adv.returns[1], 2.0, 1e-12);
  EXPECT_NEAR(adv.returns[0], 1.0 + 0.5 * 2.0, 1e-12);
}

TEST(Rollout, BootstrapUsedWhenNotDone) {
  RolloutBuffer buf;
  Transition t;
  t.reward = 1.0;
  t.valueEstimate = 0.0;
  t.done = false;
  buf.transitions = {t};
  buf.bootstrapValue = 10.0;
  const auto adv = computeGae(buf, 0.9, 1.0);
  EXPECT_NEAR(adv.returns[0], 1.0 + 0.9 * 10.0, 1e-12);
}

TEST(Rollout, NormalizeAdvantages) {
  std::vector<double> adv = {1.0, 2.0, 3.0, 4.0};
  normalizeAdvantages(adv);
  double mean = 0.0;
  for (double a : adv) mean += a;
  EXPECT_NEAR(mean, 0.0, 1e-9);
}

// End-to-end sanity: each algorithm should solve the easy 1-D band problem
// within a modest simulation budget (the random walk alone would too, but
// much less reliably; what we verify is plumbing, not superiority).
class RlAlgoTest : public ::testing::TestWithParam<int> {};

TEST_P(RlAlgoTest, SolvesEasyBandProblem) {
  const auto prob = bandProblem();
  const int algo = GetParam();
  bool solved = false;
  for (std::uint64_t seed = 1; seed <= 3 && !solved; ++seed) {
    if (algo == 0) {
      A2cConfig cfg;
      cfg.seed = seed;
      cfg.env.episodeLength = 30;
      solved = train(prob, cfg, 4000).solved;
    } else if (algo == 1) {
      PpoConfig cfg;
      cfg.seed = seed;
      cfg.horizon = 64;
      cfg.env.episodeLength = 30;
      solved = train(prob, cfg, 4000).solved;
    } else {
      TrpoConfig cfg;
      cfg.seed = seed;
      cfg.horizon = 64;
      cfg.env.episodeLength = 30;
      solved = train(prob, cfg, 4000).solved;
    }
  }
  EXPECT_TRUE(solved);
}

INSTANTIATE_TEST_SUITE_P(Algos, RlAlgoTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace trdse::rl
