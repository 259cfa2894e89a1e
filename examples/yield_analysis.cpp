// Monte Carlo mismatch / yield analysis of an AI-sized opamp.
//
// The paper's discussion raises AI-safety screening of machine-sized
// circuits; a quantitative screen a designer actually runs is MC yield under
// local device mismatch. This example sizes the 45nm opamp with the
// trust-region agent, then estimates spec yield under Pelgrom mismatch and
// compares against a margin-seeking re-run (tightened specs), showing how a
// designer would harden an AI design.
//
// Usage: yield_analysis [seed] [mcRuns]
#include <cstdio>
#include <optional>
#include <random>

#include "circuits/registry.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "common/thread_pool.hpp"
#include "core/pvt_search.hpp"
#include "sim/dc.hpp"
#include "sim/mismatch.hpp"

using namespace trdse;

namespace {

/// Mismatch introduces an input offset which the open-loop testbench
/// amplifies into the rails, so each MC sample first *nulls* the offset —
/// exactly what a designer's offset-corrected AC testbench does: adjust the
/// inverting input by the measured output error over the DC gain until the
/// output sits near mid-supply, then measure.
bool nullOffsetAndMeasure(circuits::TwoStageOpamp::Testbench& tb,
                          core::EvalResult& out) {
  const double target = 0.5 * tb.vdd;
  auto voutAt = [&](double vinn) -> std::optional<double> {
    tb.netlist.vsources()[tb.innSource].vdc = vinn;
    const sim::DcResult op = sim::DcSolver(tb.netlist).solve(&tb.initialGuess);
    if (!op.converged) return std::nullopt;
    return op.nodeVoltage(tb.out);
  };

  // Bracket the offset on a coarse scan (+-60 mV around the common mode —
  // several sigma of Pelgrom offset), then bisect. vout rises with vinn
  // through the mirror path, but bisection only needs the bracket signs.
  const double vcm = tb.netlist.vsources()[tb.inpSource].vdc;
  double lo = vcm - 0.06;
  double hi = vcm + 0.06;
  auto fLo = voutAt(lo);
  auto fHi = voutAt(hi);
  if (!fLo || !fHi) return false;
  if ((*fLo - target) * (*fHi - target) > 0.0) return false;  // offset > 60 mV
  const bool rising = *fHi > *fLo;
  for (int iter = 0; iter < 18; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const auto fMid = voutAt(mid);
    if (!fMid) return false;
    if (std::abs(*fMid - target) < 0.03 * tb.vdd) {
      out = circuits::TwoStageOpamp::measure(tb);
      return out.ok;
    }
    if ((*fMid > target) == rising) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return false;
}

/// MC samples are independent, so they fan out across the pool. Each sample
/// derives its own RNG stream from (seed, index) — the yield estimate is the
/// same for any thread count, including 1.
double mcYield(common::ThreadPool& pool, const circuits::TwoStageOpamp& amp,
               const core::ValueFunction& specCheck, const linalg::Vector& sizes,
               const sim::PvtCorner& corner, int runs, std::uint64_t seed) {
  std::vector<char> passed(static_cast<std::size_t>(runs), 0);
  pool.parallelFor(static_cast<std::size_t>(runs), [&](std::size_t i) {
    std::mt19937_64 rng(common::perTaskSeed(seed, i));
    auto tb = amp.buildTestbench(sizes, corner);
    sim::applyMismatch(tb.netlist, {}, rng);
    core::EvalResult r;
    if (nullOffsetAndMeasure(tb, r) && specCheck.satisfied(r.measurements))
      passed[i] = 1;
  });
  int pass = 0;
  for (char p : passed) pass += p;
  return 100.0 * pass / runs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const int mcRuns = argc > 2 ? std::atoi(argv[2]) : 200;

  // Scenario shape (space, specs, measurement names) from the registry; the
  // TwoStageOpamp instance stays only for testbench-level mismatch injection,
  // which no black-box evaluator can expose.
  const core::SizingProblem scenario =
      circuits::Registry::global().makeProblem("two_stage_opamp");
  const sim::ProcessCard& card = sim::bsim45Card();
  const circuits::TwoStageOpamp amp(card);
  const sim::PvtCorner tt = scenario.corners.front();
  const auto& specs = scenario.specs;
  const core::ValueFunction specCheck(scenario.measurementNames, specs);

  // All measurements in this example — sizing and MC alike — go through the
  // offset-nulled testbench, so the search optimizes exactly what the Monte
  // Carlo later judges (searching on the raw testbench and verifying on the
  // nulled one would conflate systematic-offset drift with mismatch). The
  // fused batch evaluator measures the raw testbench, so it is dropped.
  core::SizingProblem nulled = scenario;
  nulled.evaluate = [&amp](const linalg::Vector& x, const sim::PvtCorner& c) {
    auto tb = amp.buildTestbench(x, c);
    core::EvalResult r;
    if (!nullOffsetAndMeasure(tb, r)) return core::EvalResult{};
    return r;
  };
  nulled.evaluateBatch = {};

  // 1) Plain CSP solution: lands exactly on the spec boundary.
  core::PvtSearchConfig cfg;
  cfg.seed = seed;
  const auto boundary = core::PvtSearch(nulled, cfg).run(10000);
  if (!boundary.solved) {
    std::printf("search failed\n");
    return 1;
  }
  std::printf("boundary design found in %zu sims (%zu simulated, %zu cached)\n",
              boundary.totalSims, boundary.evalStats.simulated,
              boundary.evalStats.cacheHits);

  // 2) Margin-hardened solution: re-run against tightened specs.
  std::vector<core::Spec> hardened = specs;
  for (auto& s : hardened) {
    if (s.kind == core::SpecKind::kAtLeast)
      s.limit *= (s.measurement == "pm_deg") ? 1.05 : 1.08;
    else
      s.limit *= 0.9;
  }
  core::SizingProblem hardenedProblem = nulled;
  hardenedProblem.specs = hardened;
  cfg.seed = seed + 1;
  const auto margin = core::PvtSearch(hardenedProblem, cfg).run(10000);
  if (!margin.solved) {
    std::printf("hardened search failed within budget; increase it\n");
    return 1;
  }
  std::printf("hardened design found in %zu sims\n", margin.totalSims);

  // 3) MC yield of both, judged against the *original* specs. Samples run
  // thread-parallel with per-sample RNG streams (thread-count invariant).
  common::ThreadPool pool(/*threads=*/0);  // hardware concurrency
  const double yBoundary =
      mcYield(pool, amp, specCheck, boundary.sizes, tt, mcRuns, seed + 1000);
  const double yMargin =
      mcYield(pool, amp, specCheck, margin.sizes, tt, mcRuns, seed + 2000);
  std::printf("\nMonte Carlo mismatch yield (%d runs, Pelgrom Avt=3.5mV*um):\n",
              mcRuns);
  std::printf("  boundary design: %5.1f %%\n", yBoundary);
  std::printf("  hardened design: %5.1f %%  (searched with ~8%% spec margin)\n",
              yMargin);
  return 0;
}
