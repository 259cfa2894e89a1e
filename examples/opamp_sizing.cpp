// Size the BSIM-45nm two-stage opamp with the trust-region model-based agent
// (paper Section V-B) and print the found design with its measurements.
//
// The scenario comes from circuits::Registry by name; every evaluation runs
// through the memoizing eval engine (revisited grid points cost zero EDA
// blocks).
//
// Usage: opamp_sizing [seed] [budget]
#include <cstdio>
#include <cstdlib>

#include "circuits/registry.hpp"
#include "core/pvt_search.hpp"

using namespace trdse;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::size_t budget =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10000;

  const core::SizingProblem problem =
      circuits::Registry::global().makeProblem("two_stage_opamp");

  std::printf("%s | design space 10^%.1f | specs:\n", problem.name.c_str(),
              problem.space.sizeLog10());
  for (const auto& s : problem.specs)
    std::printf("  %s %s %g\n", s.measurement.c_str(),
                s.kind == core::SpecKind::kAtLeast ? ">=" : "<=", s.limit);

  core::PvtSearchConfig cfg;
  cfg.seed = seed;
  const core::PvtSearchOutcome out = core::PvtSearch(problem, cfg).run(budget);
  // The EDA-block ledger partitions every request: simulated, served from
  // the memo, or failed.
  std::printf("solved: %s in %zu SPICE requests (ledger: %zu simulated, %zu "
              "cache hits, %zu failed)\n",
              out.solved ? "yes" : "no", out.totalSims,
              out.ledger.simulatedBlocks(), out.ledger.cachedBlocks(),
              out.ledger.failedBlocks());
  if (out.solved) {
    for (std::size_t i = 0; i < problem.measurementNames.size(); ++i)
      std::printf("  %-10s = %.4g\n", problem.measurementNames[i].c_str(),
                  out.cornerEvals[0].measurements[i]);
    for (std::size_t i = 0; i < out.sizes.size(); ++i)
      std::printf("  %-6s = %.4g\n", problem.space.param(i).name.c_str(),
                  out.sizes[i]);
    if (problem.area)
      std::printf("  area ~ %.1f um^2\n", problem.area(out.sizes));
  }
  return out.solved ? 0 : 1;
}
