// Topology generalization (paper Section V-E's closing claim): the identical
// agent configuration sizes two different amplifier schematics — the Miller
// two-stage opamp and the folded-cascode OTA — without any per-topology
// tuning; "generalization at the algorithm architecture level".
//
// Both scenarios come from circuits::Registry by name — the loop body never
// mentions a circuit class.
//
// Usage: topology_generalization [seed]
#include <cstdio>

#include "circuits/registry.hpp"
#include "core/pvt_search.hpp"

using namespace trdse;

namespace {

void runOne(const char* circuitName, std::uint64_t seed) {
  const core::SizingProblem problem =
      circuits::Registry::global().makeProblem(circuitName);
  core::PvtSearchConfig cfg;
  cfg.seed = seed;
  const auto out = core::PvtSearch(problem, cfg).run(10000);
  std::printf("%-22s dim=%zu space=10^%.1f  solved=%d in %zu sims\n",
              circuitName, problem.space.dim(), problem.space.sizeLog10(),
              int(out.solved), out.totalSims);
  if (out.solved) {
    std::printf("  ");
    for (std::size_t i = 0; i < problem.measurementNames.size(); ++i)
      std::printf(" %s=%.4g", problem.measurementNames[i].c_str(),
                  out.cornerEvals[0].measurements[i]);
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  runOne("two_stage_opamp", seed);
  runOne("folded_cascode", seed);
  return 0;
}
