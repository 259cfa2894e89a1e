// Ablation — surrogate capacity (paper IV-B claims a simple 3-layer
// feed-forward network suffices as the SPICE approximator; this sweeps depth
// and width).
#include "bench/bench_util.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"

using namespace trdse;

int main() {
  const sim::ProcessCard& card = sim::bsim45Card();
  const circuits::TwoStageOpamp amp(card);
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, card.nominalVdd, 27.0};
  const core::SizingProblem problem = amp.makeProblem({tt}, amp.defaultSpecs());

  bench::printTableHeader("Ablation: surrogate depth x width",
                          "paper Section IV-B / Eq. 3");
  struct Variant {
    std::size_t layers;
    std::size_t width;
  };
  const Variant variants[] = {{1, 16}, {1, 48}, {2, 16}, {2, 48}, {2, 96}, {3, 48}};
  const std::size_t runs = bench::scaled(8);
  const std::size_t cap = bench::budgetOr(10000);
  for (const auto& v : variants) {
    bench::AgentRow row;
    row.name = std::to_string(v.layers) + " hidden x " + std::to_string(v.width);
    row.runs = runs;
    for (std::size_t r = 0; r < runs; ++r) {
      core::PvtSearchConfig cfg;
      cfg.seed = 7200 + r;
      cfg.explorer.surrogate.hiddenLayers = v.layers;
      cfg.explorer.surrogate.hiddenWidth = v.width;
      const auto out = core::PvtSearch(problem, cfg).run(cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.totalSims));
    }
    bench::printRow(row);
  }
  return 0;
}
