// Cross-module integration tests: the full agent stack against the real
// circuit simulator — small budgets, seeds chosen for robustness.
#include <gtest/gtest.h>

#include "circuits/ico.hpp"
#include "circuits/ldo.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "opt/random_search.hpp"
#include "opt/tree_bayes_opt.hpp"
#include "pvt/corners.hpp"
#include "rl/sizing_env.hpp"

namespace trdse {
namespace {

TEST(Integration, TrustRegionAgentSolves45nmOpamp) {
  const circuits::TwoStageOpamp amp(sim::bsim45Card());
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, sim::bsim45Card().nominalVdd,
                          27.0};
  const auto prob = amp.makeProblem({tt}, amp.defaultSpecs());
  const core::ValueFunction value(prob.measurementNames, prob.specs);
  // Robustness across seeds: at least 2 of 3 must solve within 1500 sims
  // (the paper's agent averages well under 100 here).
  int solved = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    core::PvtSearchConfig cfg;
    cfg.seed = seed;
    const auto out = core::PvtSearch(prob, cfg).run(1500);
    solved += out.solved;
    if (out.solved) {
      EXPECT_TRUE(value.satisfied(out.cornerEvals[0].measurements));
      // Solution is on the declared grid.
      EXPECT_EQ(prob.space.snap(out.sizes), out.sizes);
    }
  }
  EXPECT_GE(solved, 2);
}

TEST(Integration, AgentBeatsRandomSearchByOrderOfMagnitude) {
  const circuits::TwoStageOpamp amp(sim::bsim45Card());
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, sim::bsim45Card().nominalVdd,
                          27.0};
  const auto prob = amp.makeProblem({tt}, amp.defaultSpecs());

  double agentIters = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    core::PvtSearchConfig cfg;
    cfg.seed = seed;
    agentIters +=
        static_cast<double>(core::PvtSearch(prob, cfg).run(4000).totalSims);
  }
  agentIters /= 3.0;

  // Random search at the same budget: count sims to solve (cap 4000).
  double randomIters = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    opt::RandomSearch rs(prob, seed, 4000);
    randomIters += static_cast<double>(rs.run().iterations);
  }
  randomIters /= 3.0;

  EXPECT_LT(agentIters * 5.0, randomIters);  // conservative 5x; paper >100x
}

TEST(Integration, ProgressivePvtOn22nmOpamp) {
  const circuits::TwoStageOpamp amp(sim::bsim22Card());
  const auto corners = pvt::nineCornerSet(sim::bsim22Card().nominalVdd);
  const auto prob = amp.makeProblem(corners, amp.defaultSpecs());
  core::PvtSearchConfig cfg;
  cfg.strategy = core::PvtStrategy::kProgressiveHardest;
  cfg.seed = 4;
  cfg.explorer = core::autoSchedule(prob);
  core::PvtSearch search(prob, cfg);
  const auto out = search.run(6000);
  ASSERT_TRUE(out.solved);
  const core::ValueFunction value(prob.measurementNames, prob.specs);
  for (std::size_t c = 0; c < corners.size(); ++c) {
    ASSERT_TRUE(out.cornerEvals[c].ok) << corners[c].name();
    EXPECT_TRUE(value.satisfied(out.cornerEvals[c].measurements))
        << corners[c].name();
  }
}

TEST(Integration, BoSolvesIcoCase) {
  const circuits::Ico ico(sim::n5Card());
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, sim::n5Card().nominalVdd,
                          27.0};
  const auto prob = ico.makeProblem({tt}, ico.defaultSpecs());
  opt::TreeBayesOptConfig cfg;
  cfg.seed = 6;
  opt::TreeBayesOpt bo(prob, cfg, 1200);
  const auto out = bo.run();
  EXPECT_TRUE(out.solved);
}

TEST(Integration, SessionApiOnLdoSingleCorner) {
  const circuits::Ldo ldo(sim::n6Card());
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, sim::n6Card().nominalVdd,
                          27.0};
  core::SessionOptions options;
  options.maxSimulations = 4000;
  options.seed = 2;
  core::SizingSession session(ldo.makeProblem({tt}, ldo.defaultSpecs()),
                              options);
  const auto report = session.run();
  EXPECT_TRUE(report.solved);
  EXPECT_GT(report.areaEstimate, 0.0);
  EXPECT_NE(report.summary.find("ldo_n6"), std::string::npos);
}

TEST(Integration, RlEnvDrivesRealSimulator) {
  const circuits::TwoStageOpamp amp(sim::bsim45Card());
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, sim::bsim45Card().nominalVdd,
                          27.0};
  const auto prob = amp.makeProblem({tt}, amp.defaultSpecs());
  const auto engine = rl::makeEnvEngine(prob);
  rl::SizingEnv env(prob, {}, 8, *engine);
  auto obs = env.reset();
  EXPECT_EQ(obs.size(), env.observationDim());
  for (int i = 0; i < 5; ++i) {
    std::vector<std::size_t> actions(env.actionHeads(), 2);  // all increment
    const auto sr = env.step(actions);
    EXPECT_EQ(sr.observation.size(), env.observationDim());
    obs = sr.observation;
  }
  EXPECT_EQ(env.simulationsUsed(), 6u);
}

TEST(Integration, PortingWeightAdoptionAcrossNodes) {
  // A surrogate trained on 45nm can be *loaded* into a 22nm search (same
  // problem shape); the porting bench measures whether it also *helps*.
  const circuits::TwoStageOpamp amp45(sim::bsim45Card());
  const sim::PvtCorner tt45{sim::ProcessCorner::kTT,
                            sim::bsim45Card().nominalVdd, 27.0};
  const auto prob45 = amp45.makeProblem({tt45}, amp45.defaultSpecs());
  core::PvtSearchConfig cfg;
  cfg.seed = 12;
  core::PvtSearch donor(prob45, cfg);
  const auto donorOut = donor.run(2000);
  ASSERT_TRUE(donorOut.solved);
  ASSERT_NE(donor.surrogate(0), nullptr);

  const circuits::TwoStageOpamp amp22(sim::bsim22Card());
  const sim::PvtCorner tt22{sim::ProcessCorner::kTT,
                            sim::bsim22Card().nominalVdd, 27.0};
  const auto prob22 = amp22.makeProblem({tt22}, amp22.defaultSpecs());
  core::PvtSearchConfig warm;
  warm.seed = 13;
  warm.explorer.startingPoint = donorOut.sizes;
  warm.explorer.warmStartWeights = &donor.surrogate(0)->network();
  const auto out = core::PvtSearch(prob22, warm).run(3000);
  EXPECT_TRUE(out.solved);
}

}  // namespace
}  // namespace trdse
