// Process porting / AIP reuse (paper Section V-C, Table II): size the opamp
// on BSIM 45nm, persist the trained agent to a versioned checkpoint file,
// then port to BSIM 22nm by warm-starting from that file — the deployment
// flow the paper's F1 -> F2 industrial result describes, where the donor
// search and the target search are separate processes (possibly separated by
// weeks).
//
// Donor and target scenarios are the same registry circuit on two process
// cards — porting is literally a one-string change. The donor phase writes
// donor.ckpt (surrogate network + optimal sizes); the target phase reads it
// back and compares the paper's three strategies, reporting the EDA blocks
// actually simulated so the warm-start saving is visible directly.
//
// Usage: process_porting [seed] [checkpoint-path]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "circuits/registry.hpp"
#include "core/pvt_search.hpp"
#include "io/checkpoint.hpp"
#include "io/state_io.hpp"

using namespace trdse;

namespace {

/// Donor phase: solve 45nm, persist the trained agent.
bool runDonor(std::uint64_t seed, const std::string& path) {
  const auto& registry = circuits::Registry::global();
  const core::SizingProblem prob45 =
      registry.makeProblem("two_stage_opamp", {}, "bsim45");
  core::PvtSearchConfig cfg45;
  cfg45.seed = seed;
  core::PvtSearch donor(prob45, cfg45);
  const core::PvtSearchOutcome out45 = donor.run(10000);
  std::printf("45nm donor: solved=%d iterations=%zu simulated=%zu\n",
              int(out45.solved), out45.totalSims, out45.evalStats.simulated);
  if (!out45.solved) return false;

  io::CheckpointWriter w("porting-donor");
  io::SectionWriter& meta = w.section("meta");
  meta.str("two_stage_opamp");
  meta.str("bsim45");
  io::writeMlp(w.section("surrogate-net"), donor.surrogate(0)->network());
  w.section("best-sizes").vec(out45.sizes);
  w.writeFile(path);
  std::printf("45nm donor: agent saved to %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::string ckptPath = argc > 2 ? argv[2] : "donor.ckpt";
  try {
    if (!runDonor(seed, ckptPath)) return 1;

    // ---- Target node: 22nm, warm-started from the donor checkpoint file.
    const io::CheckpointReader ckpt = io::CheckpointReader::fromFile(ckptPath);
    ckpt.expectKind("porting-donor");
    io::SectionReader metaReader = ckpt.section("meta");
    const std::string donorCircuit = metaReader.str();
    const std::string donorProcess = metaReader.str();
    if (donorCircuit != "two_stage_opamp") {
      std::fprintf(stderr,
                   "donor checkpoint is for circuit '%s', expected "
                   "two_stage_opamp — refusing to warm-start from it\n",
                   donorCircuit.c_str());
      return 1;
    }
    std::printf("porting donor agent trained on %s/%s\n",
                donorCircuit.c_str(), donorProcess.c_str());
    io::SectionReader netReader = ckpt.section("surrogate-net");
    const nn::Mlp donorNet = io::readMlp(netReader);
    io::SectionReader sizesReader = ckpt.section("best-sizes");
    const linalg::Vector donorSizes = sizesReader.vec();

    const auto& registry = circuits::Registry::global();
    const core::SizingProblem prob22 =
        registry.makeProblem("two_stage_opamp", {}, "bsim22");

    struct Strategy {
      const char* name;
      bool shareWeights;
      bool shareStart;
    };
    const Strategy strategies[] = {
        {"cold start (random weights, random start)", false, false},
        {"weight sharing + starting point sharing", true, true},
        {"random weights + starting point sharing", false, true},
    };
    std::size_t coldSimulated = 0;
    std::size_t warmSimulated = 0;
    for (const auto& s : strategies) {
      core::PvtSearchConfig cfg;
      cfg.seed = seed + 100;
      if (s.shareStart) cfg.explorer.startingPoint = donorSizes;
      if (s.shareWeights) cfg.explorer.warmStartWeights = &donorNet;
      const core::PvtSearchOutcome out =
          core::PvtSearch(prob22, cfg).run(10000);
      std::printf("22nm %-42s: solved=%d iterations=%zu simulated=%zu\n",
                  s.name, int(out.solved), out.totalSims,
                  out.evalStats.simulated);
      if (!s.shareWeights && !s.shareStart) coldSimulated = out.evalStats.simulated;
      if (s.shareWeights && s.shareStart) warmSimulated = out.evalStats.simulated;
    }
    if (warmSimulated < coldSimulated) {
      std::printf(
          "warm start saved %zu simulated blocks vs cold start (%zu -> %zu)\n",
          coldSimulated - warmSimulated, coldSimulated, warmSimulated);
    } else {
      std::printf("warm start did not beat cold start at this seed "
                  "(%zu vs %zu)\n", warmSimulated, coldSimulated);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "process_porting failed: %s\n", e.what());
    return 1;
  }
}
