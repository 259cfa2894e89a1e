// Ablation — Monte Carlo planning sample count m (paper IV-B chose vanilla
// MC sampling for planning speed; this sweeps how many model evaluations per
// TRM step are actually needed).
#include "bench/bench_util.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"

using namespace trdse;

int main() {
  const sim::ProcessCard& card = sim::bsim45Card();
  const circuits::TwoStageOpamp amp(card);
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, card.nominalVdd, 27.0};
  const core::SizingProblem problem = amp.makeProblem({tt}, amp.defaultSpecs());

  bench::printTableHeader("Ablation: Monte Carlo planning samples m",
                          "paper Section IV-B / Eq. 5");
  const std::size_t runs = bench::scaled(10);
  const std::size_t cap = bench::budgetOr(10000);
  for (const std::size_t m : {50u, 200u, 800u, 2000u}) {
    bench::AgentRow row;
    row.name = "m = " + std::to_string(m);
    row.runs = runs;
    for (std::size_t r = 0; r < runs; ++r) {
      core::PvtSearchConfig cfg;
      cfg.seed = 7100 + r;
      cfg.explorer.mcSamples = m;
      const auto out = core::PvtSearch(problem, cfg).run(cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.totalSims));
    }
    bench::printRow(row);
  }
  return 0;
}
