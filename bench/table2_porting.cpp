// Table II — process porting from BSIM 45nm to BSIM 22nm.
//
// Paper rows (avg / min / max steps on the 22nm target):
//   baseline (random weights, random starting points)  50.17 / 15 / 191
//   weight sharing + starting point sharing            29.22 /  3 / 310
//   random weights + starting point sharing            20.74 /  2 /  88
//
// Shape to reproduce: optimal points transfer well; network weights do not
// (distinct process distributions) — start sharing alone wins.
#include "bench/bench_util.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"

using namespace trdse;

int main() {
  const circuits::TwoStageOpamp amp45(sim::bsim45Card());
  const sim::PvtCorner tt45{sim::ProcessCorner::kTT,
                            sim::bsim45Card().nominalVdd, 27.0};
  const core::SizingProblem prob45 =
      amp45.makeProblem({tt45}, amp45.defaultSpecs());

  // One donor search on 45nm provides the shared weights + starting point.
  core::PvtSearchConfig donorCfg;
  donorCfg.seed = 42;
  core::PvtSearch donor(prob45, donorCfg);
  const auto donorOut = donor.run(bench::budgetOr(10000));
  if (!donorOut.solved) {
    std::printf("table2: donor search failed; aborting\n");
    return 1;
  }
  std::printf("45nm donor solved in %zu iterations\n", donorOut.totalSims);

  const circuits::TwoStageOpamp amp22(sim::bsim22Card());
  const sim::PvtCorner tt22{sim::ProcessCorner::kTT,
                            sim::bsim22Card().nominalVdd, 27.0};
  const core::SizingProblem prob22 =
      amp22.makeProblem({tt22}, amp22.defaultSpecs());

  bench::printTableHeader("Table II: process porting 45nm -> 22nm",
                          "paper Table II");
  struct Strategy {
    const char* name;
    bool shareWeights;
    bool shareStart;
  };
  const Strategy strategies[] = {
      {"baseline (random weights, random start)", false, false},
      {"weight sharing + starting point sharing", true, true},
      {"random weights + starting point sharing", false, true},
  };
  const std::size_t runs = bench::scaled(20);
  for (const auto& s : strategies) {
    bench::AgentRow row;
    row.name = s.name;
    row.runs = runs;
    for (std::size_t r = 0; r < runs; ++r) {
      core::PvtSearchConfig cfg;
      cfg.seed = 1000 + r;
      if (s.shareStart) cfg.explorer.startingPoint = donorOut.sizes;
      if (s.shareWeights)
        cfg.explorer.warmStartWeights = &donor.surrogate(0)->network();
      const auto out = core::PvtSearch(prob22, cfg).run(bench::budgetOr(10000));
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.totalSims));
    }
    bench::printRow(row);
  }
  return 0;
}
