// Table I — performance of agents on the 45nm two-stage opamp, single PVT,
// 10k-simulation cap per run.
//
// Paper rows:   success    avg iterations
//   Random search   100%      8565
//   Customized BO   100%       330
//   A2C              90%     34797
//   PPO              40%     31503
//   TRPO             20%     16350
//   Our method      100%        36
//
// Model-free rows exceed the cap in the paper too (they are trained across
// episodes); here a run that fails within the cap reports the cap.
#include "bench/bench_util.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"
#include "opt/random_search.hpp"
#include "opt/tree_bayes_opt.hpp"
#include "rl/learner.hpp"

using namespace trdse;

int main() {
  const sim::ProcessCard& card = sim::bsim45Card();
  const circuits::TwoStageOpamp amp(card);
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, card.nominalVdd, 27.0};
  const core::SizingProblem problem = amp.makeProblem({tt}, amp.defaultSpecs());
  const std::size_t cap = bench::budgetOr(10000);

  bench::printTableHeader("Table I: 45nm two-stage opamp, single PVT",
                          "paper Table I");

  {  // Random search (paper: strong baseline).
    bench::AgentRow row;
    row.name = "Random search";
    row.runs = bench::scaled(4);
    for (std::size_t r = 0; r < row.runs; ++r) {
      opt::RandomSearch rs(problem, 100 + r, cap);
      const auto out = rs.run();
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.iterations));
    }
    bench::printRow(row);
  }

  {  // Customized BO (extra-trees + dynamic explore/exploit).
    bench::AgentRow row;
    row.name = "Customized BO (extra-trees)";
    row.runs = bench::scaled(6);
    for (std::size_t r = 0; r < row.runs; ++r) {
      opt::TreeBayesOptConfig cfg;
      cfg.seed = 200 + r;
      opt::TreeBayesOpt bo(problem, cfg, cap);
      const auto out = bo.run();
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.iterations));
    }
    bench::printRow(row);
  }

  {  // A2C
    bench::AgentRow row;
    row.name = "A2C (AutoCkt-style env)";
    row.runs = bench::scaled(3);
    for (std::size_t r = 0; r < row.runs; ++r) {
      rl::A2cConfig cfg;
      cfg.seed = 300 + r;
      const auto out = rl::train(problem, cfg, cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.simulationsToSolve));
    }
    bench::printRow(row);
  }

  {  // PPO
    bench::AgentRow row;
    row.name = "PPO (AutoCkt-style env)";
    row.runs = bench::scaled(3);
    for (std::size_t r = 0; r < row.runs; ++r) {
      rl::PpoConfig cfg;
      cfg.seed = 400 + r;
      const auto out = rl::train(problem, cfg, cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.simulationsToSolve));
    }
    bench::printRow(row);
  }

  {  // TRPO
    bench::AgentRow row;
    row.name = "TRPO (AutoCkt-style env)";
    row.runs = bench::scaled(3);
    for (std::size_t r = 0; r < row.runs; ++r) {
      rl::TrpoConfig cfg;
      cfg.seed = 500 + r;
      const auto out = rl::train(problem, cfg, cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.simulationsToSolve));
    }
    bench::printRow(row);
  }

  {  // Our method: trust-region model-based agent.
    bench::AgentRow row;
    row.name = "Our method (trust-region model-based)";
    row.runs = bench::scaled(20);
    for (std::size_t r = 0; r < row.runs; ++r) {
      core::PvtSearchConfig cfg;
      cfg.seed = 600 + r;
      const auto out = core::PvtSearch(problem, cfg).run(cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.totalSims));
    }
    bench::printRow(row);
  }
  return 0;
}
