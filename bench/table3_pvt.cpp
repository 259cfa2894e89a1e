// Table III — PVT exploration strategies on the BSIM 22nm two-stage opamp
// over a 9-condition sign-off set.
//
// Paper rows (avg / min / max steps, one step = one EDA simulation):
//   Random search            failed (10000+)
//   Brute force (all cond.)  359.4 /  36 / 1305
//   Progressive (random)      89.52 /  20 /  450
//   Progressive (hardest)     72.60 /  15 /  279
#include "bench/bench_util.hpp"
#include "circuits/registry.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "opt/random_search.hpp"
#include "pvt/corners.hpp"

using namespace trdse;

int main() {
  const auto corners = pvt::nineCornerSet(sim::bsim22Card().nominalVdd);
  const core::SizingProblem problem =
      circuits::Registry::global().makeProblem("two_stage_opamp", corners,
                                               "bsim22");
  const std::size_t cap = bench::budgetOr(10000);

  bench::printTableHeader("Table III: PVT exploration strategies (22nm, 9 corners)",
                          "paper Table III / Fig. 3");

  {  // Random search: evaluates corners sequentially per sample.
    bench::AgentRow row;
    row.name = "Random search";
    row.runs = bench::scaled(3);
    for (std::size_t r = 0; r < row.runs; ++r) {
      opt::RandomSearch rs(problem, 2000 + r, cap);
      const auto out = rs.run();
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.iterations));
    }
    bench::printRow(row);
  }

  const core::PvtStrategy strategies[] = {core::PvtStrategy::kBruteForce,
                                          core::PvtStrategy::kProgressiveRandom,
                                          core::PvtStrategy::kProgressiveHardest};
  for (const auto strategy : strategies) {
    bench::AgentRow row;
    row.name = std::string(toString(strategy));
    row.runs = bench::scaled(10);
    for (std::size_t r = 0; r < row.runs; ++r) {
      core::PvtSearchConfig cfg;
      cfg.strategy = strategy;
      cfg.seed = 3000 + 17 * r;
      // Paper accounting: totalSims counts every logical request, memo hits
      // included, so the seeded trajectory and the row do not depend on
      // what the memo held.
      cfg.explorer = core::autoSchedule(problem);
      core::PvtSearch search(problem, cfg);
      const auto out = search.run(cap);
      row.successes += out.solved;
      row.iterations.push_back(static_cast<double>(out.totalSims));
    }
    bench::printRow(row);
  }
  return 0;
}
