// Fig. 3 — progressive PVT exploration schedule.
//
// The paper's figure shows, per strategy, which PVT condition occupies each
// EDA-time block (search on the focus corner(s), periodic verify sweeps of
// the rest, failing corners joining the pool). This bench re-renders that
// timeline as ASCII from the actual ledger of a run, for brute force and
// both progressive variants.
#include "bench/bench_util.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "core/pvt_search.hpp"
#include "core/sizing_api.hpp"
#include "pvt/corners.hpp"

using namespace trdse;

int main() {
  const sim::ProcessCard& card = sim::bsim22Card();
  const circuits::TwoStageOpamp amp(card);
  const auto corners = pvt::nineCornerSet(card.nominalVdd);
  const core::SizingProblem problem = amp.makeProblem(corners, amp.defaultSpecs());

  std::printf("\n==== Fig. 3: progressive PVT exploration timeline ====\n");
  std::printf("corners:\n");
  for (std::size_t i = 0; i < corners.size(); ++i)
    std::printf("  PVT%zu = %s\n", i + 1, corners[i].name().c_str());

  const core::PvtStrategy strategies[] = {core::PvtStrategy::kBruteForce,
                                          core::PvtStrategy::kProgressiveRandom,
                                          core::PvtStrategy::kProgressiveHardest};
  for (const auto strategy : strategies) {
    core::PvtSearchConfig cfg;
    cfg.strategy = strategy;
    cfg.seed = 9;
    cfg.explorer = core::autoSchedule(problem);
    core::PvtSearch search(problem, cfg);
    const auto out = search.run(bench::budgetOr(10000));
    std::printf("\n-- %s: solved=%d, %zu EDA blocks (%zu search / %zu verify), "
                "%zu corners activated --\n",
                std::string(toString(strategy)).c_str(), int(out.solved),
                out.ledger.totalBlocks(), out.ledger.searchBlocks(),
                out.ledger.verifyBlocks(), out.cornersActivated);
    std::printf("%s", out.ledger.renderTimeline(corners.size()).c_str());
  }
  return 0;
}
