// Table IV — LDO sizing on the synthetic n6 advanced node (multi-corner).
//
// Paper rows:                 # iterations   loop gain   area
//   Specification                       -     > 40 dB    < 650
//   Human                     untraceable      38.0 dB     650
//   Customized BO                  failed      38.2 dB     604
//   Our method                       2609      40.0 dB     632
//
// Our substrate's loop gains live around 100 dB rather than 40 (see
// EXPERIMENTS.md), so the spec is calibrated to sit the same ~2 dB above the
// human reference; the shape — human just under spec, BO close-but-failing,
// the agent meeting spec with smaller area — is the reproduction target.
#include "bench/bench_util.hpp"
#include "circuits/ldo.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "opt/tree_bayes_opt.hpp"

using namespace trdse;

int main() {
  const circuits::Ldo ldo(sim::n6Card());
  const std::vector<sim::PvtCorner> corners = {
      {sim::ProcessCorner::kTT, 0.75, 27.0},
      {sim::ProcessCorner::kSS, 0.70, 125.0},
      {sim::ProcessCorner::kFF, 0.80, -40.0},
  };
  const core::SizingProblem problem = ldo.makeProblem(corners, ldo.defaultSpecs());
  const core::ValueFunction value(problem.measurementNames, problem.specs);

  std::printf("\n==== Table IV: LDO on n6 (space 10^%.1f, %zu corners) ====\n",
              problem.space.sizeLog10(), corners.size());
  std::printf("%-28s %12s %12s %10s %10s\n", "agent", "iterations",
              "loop gain dB", "area au", "status");

  double specGain = 0.0;
  double specArea = 0.0;
  for (const auto& s : problem.specs) {
    if (s.measurement == "loop_gain_db") specGain = s.limit;
    if (s.measurement == "area_au") specArea = s.limit;
  }
  std::printf("%-28s %12s %12.1f %10.0f %10s\n", "Specification", "-", specGain,
              specArea, ">=, <=");

  {  // Human reference: evaluated at the worst corner for honesty.
    const auto sizes = circuits::Ldo::humanReferenceSizing();
    double worstGain = 1e18;
    bool allOk = true;
    for (const auto& c : corners) {
      const auto e = ldo.evaluate(sizes, c);
      if (!e.ok) {
        allOk = false;
        break;
      }
      worstGain = std::min(worstGain, e.measurements[circuits::Ldo::kLoopGainDb]);
    }
    std::printf("%-28s %12s %12.1f %10.1f %10s\n", "Human", "untraceable",
                allOk ? worstGain : 0.0, ldo.area(sizes),
                allOk && worstGain >= specGain ? "meets" : "misses gain");
  }

  {  // Customized BO.
    opt::TreeBayesOptConfig cfg;
    cfg.seed = 11;
    opt::TreeBayesOpt bo(problem, cfg, bench::budgetOr(6000));
    const auto out = bo.run();
    const double gain = out.bestMeasurements.empty()
                            ? 0.0
                            : out.bestMeasurements[circuits::Ldo::kLoopGainDb];
    std::printf("%-28s %12zu %12.1f %10.1f %10s\n", "Customized BO",
                out.iterations, gain,
                out.sizes.empty() ? 0.0 : ldo.area(out.sizes),
                out.solved ? "solved" : "failed");
  }

  {  // Our method (progressive PVT trust-region search).
    core::PvtSearchConfig cfg;
    cfg.seed = 5;
    cfg.strategy = core::PvtStrategy::kProgressiveHardest;
    cfg.explorer = core::autoSchedule(problem);
    core::PvtSearch search(problem, cfg);
    const auto out = search.run(bench::budgetOr(20000));
    double worstGain = 1e18;
    for (const auto& e : out.cornerEvals)
      if (e.ok)
        worstGain = std::min(worstGain, e.measurements[circuits::Ldo::kLoopGainDb]);
    std::printf("%-28s %12zu %12.1f %10.1f %10s\n", "Our method", out.totalSims,
                out.solved ? worstGain : 0.0,
                out.sizes.empty() ? 0.0 : ldo.area(out.sizes),
                out.solved ? "solved" : "failed");
  }
  return 0;
}
