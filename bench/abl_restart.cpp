// Ablation — escape criterion (Algorithm 1 line 15): how aggressively should
// a stagnating local search abandon its region and resample globally?
#include "bench/bench_util.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"

using namespace trdse;

int main() {
  const sim::ProcessCard& card = sim::bsim45Card();
  const circuits::TwoStageOpamp amp(card);
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, card.nominalVdd, 27.0};
  const core::SizingProblem problem = amp.makeProblem({tt}, amp.defaultSpecs());

  bench::printTableHeader("Ablation: restart / escape criterion",
                          "paper Algorithm 1 line 15");
  const std::size_t runs = bench::scaled(10);
  const std::size_t cap = bench::budgetOr(10000);
  for (const std::size_t patience : {6u, 18u, 40u, 100000u}) {
    bench::AgentRow row;
    row.name = patience > 1000 ? std::string("never (cap only)")
                               : "stagnation patience = " + std::to_string(patience);
    row.runs = runs;
    for (std::size_t r = 0; r < runs; ++r) {
      core::PvtSearchConfig cfg;
      cfg.seed = 7400 + r;
      cfg.explorer.stagnationPatience = patience;
      const auto out = core::PvtSearch(problem, cfg).run(cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.totalSims));
    }
    bench::printRow(row);
  }
  return 0;
}
