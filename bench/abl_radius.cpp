// Ablation — trust-region adaptivity (paper Section IV-C's central claim:
// "the transition of search space size ... is the key factor"; a statically
// fixed local region should lose to the TRM-updated radius).
#include "bench/bench_util.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"

using namespace trdse;

int main() {
  const sim::ProcessCard& card = sim::bsim45Card();
  const circuits::TwoStageOpamp amp(card);
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, card.nominalVdd, 27.0};
  const core::SizingProblem problem = amp.makeProblem({tt}, amp.defaultSpecs());

  bench::printTableHeader("Ablation: adaptive vs fixed trust-region radius",
                          "paper Section IV-C");
  struct Variant {
    std::string name;
    bool adaptive;
    double radius;
  };
  const Variant variants[] = {
      {"TRM adaptive (default)", true, 0.08},
      {"fixed radius 0.03", false, 0.03},
      {"fixed radius 0.08", false, 0.08},
      {"fixed radius 0.20", false, 0.20},
  };
  const std::size_t runs = bench::scaled(10);
  const std::size_t cap = bench::budgetOr(10000);
  for (const auto& v : variants) {
    bench::AgentRow row;
    row.name = v.name;
    row.runs = runs;
    for (std::size_t r = 0; r < runs; ++r) {
      core::PvtSearchConfig cfg;
      cfg.seed = 7000 + r;
      cfg.explorer.trustRegion.adaptive = v.adaptive;
      cfg.explorer.trustRegion.initRadius = v.radius;
      const auto out = core::PvtSearch(problem, cfg).run(cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.totalSims));
    }
    bench::printRow(row);
  }
  return 0;
}
