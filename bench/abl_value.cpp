// Ablation — value engineering (paper IV-D): the naive sum-of-normalized
// value versus the optional second-stage margin bonus used during planning.
#include "bench/bench_util.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"

using namespace trdse;

int main() {
  const sim::ProcessCard& card = sim::bsim45Card();
  const circuits::TwoStageOpamp amp(card);
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, card.nominalVdd, 27.0};
  const core::SizingProblem problem = amp.makeProblem({tt}, amp.defaultSpecs());

  bench::printTableHeader("Ablation: planning value margin bonus",
                          "paper Section IV-D");
  const std::size_t runs = bench::scaled(10);
  const std::size_t cap = bench::budgetOr(10000);
  for (const double bonus : {0.0, 0.02, 0.1, 0.5}) {
    bench::AgentRow row;
    row.name = "margin bonus = " + std::to_string(bonus);
    row.runs = runs;
    for (std::size_t r = 0; r < runs; ++r) {
      core::PvtSearchConfig cfg;
      cfg.seed = 7300 + r;
      cfg.explorer.marginBonus = bonus;
      const auto out = core::PvtSearch(problem, cfg).run(cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.totalSims));
    }
    bench::printRow(row);
  }
  return 0;
}
