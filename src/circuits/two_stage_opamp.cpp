#include "circuits/two_stage_opamp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <vector>

#include "sim/ac.hpp"
#include "sim/netlist.hpp"
#include "sim/op_batch.hpp"

namespace trdse::circuits {

namespace {
constexpr double kLoadCap = 400e-15;  // fixed CL [F]
constexpr double kBiasDiodeWidth = 2e-6;

/// Assemble the result from an operating point + completed sweep.
core::EvalResult resultFromSweep(const TwoStageOpamp::Testbench& tb,
                                 const sim::DcResult& op,
                                 const std::vector<double>& freqs,
                                 const std::vector<std::complex<double>>& h) {
  const sim::LoopMetrics lm = sim::analyzeLoop(freqs, h);
  if (!lm.crossesUnity) return {};  // no meaningful UGBW / PM

  core::EvalResult r;
  r.ok = true;
  r.measurements.assign(TwoStageOpamp::kMeasCount, 0.0);
  r.measurements[TwoStageOpamp::kGainDb] = lm.dcGainDb;
  r.measurements[TwoStageOpamp::kUgbwHz] = lm.unityGainHz;
  r.measurements[TwoStageOpamp::kPmDeg] = lm.phaseMarginDeg;
  r.measurements[TwoStageOpamp::kPowerMw] =
      std::abs(op.vsourceCurrent(tb.vddSource)) * tb.vdd * 1e3;
  return r;
}

/// The opamp's one measurement pipeline: the DC operating points of up to
/// sim::kSimLanes testbenches through solveDcBatch, then one AcBatch sweep
/// over the lanes that converged. measure(), evaluate() and evaluateBatch()
/// all run it, so a slot's bits do not depend on how many lanes share its
/// pass.
void measureLanes(const TwoStageOpamp::Testbench* const* tbs, std::size_t lanes,
                  core::EvalResult* results) {
  const auto freqs = sim::AcSolver::logSpace(10.0, 20e9, 120);
  std::array<const sim::Netlist*, sim::kSimLanes> nls{};
  std::array<const linalg::Vector*, sim::kSimLanes> guesses{};
  for (std::size_t l = 0; l < lanes; ++l) {
    nls[l] = &tbs[l]->netlist;
    guesses[l] = &tbs[l]->initialGuess;
  }
  const auto ops = sim::solveDcBatch(nls, guesses);

  std::array<const sim::Netlist*, sim::kSimLanes> acNls{};
  std::array<const sim::DcResult*, sim::kSimLanes> acOps{};
  bool anyAc = false;
  for (std::size_t l = 0; l < lanes; ++l) {
    if (!ops[l].converged) continue;
    acNls[l] = nls[l];
    acOps[l] = &ops[l];
    anyAc = true;
  }

  std::array<std::vector<std::complex<double>>, sim::kSimLanes> h;
  if (anyAc) {
    sim::AcBatch ac(acNls, acOps);
    for (std::size_t l = 0; l < lanes; ++l)
      if (acOps[l]) h[l].reserve(freqs.size());
    for (const double f : freqs) {
      ac.solveAt(f);
      for (std::size_t l = 0; l < lanes; ++l)
        if (acOps[l])
          h[l].push_back(ac.nodeVoltage(static_cast<int>(l), tbs[l]->out));
    }
    // A lane whose lane-blocked factorization went non-finite is replayed
    // through the scalar AcSolver, which is the equivalence reference.
    for (std::size_t l = 0; l < lanes; ++l)
      if (acOps[l] && !ac.laneFinite(static_cast<int>(l)))
        h[l] = ac.laneSolver(static_cast<int>(l))->sweep(freqs, tbs[l]->out);
  }

  for (std::size_t l = 0; l < lanes; ++l)
    results[l] = acOps[l] ? resultFromSweep(*tbs[l], ops[l], freqs, h[l])
                          : core::EvalResult{};
}
}  // namespace

TwoStageOpamp::TwoStageOpamp(const sim::ProcessCard& card) : card_(card) {}

const std::vector<std::string>& TwoStageOpamp::measurementNames() {
  static const std::vector<std::string> names = {"gain_db", "ugbw_hz", "pm_deg",
                                                 "power_mw"};
  return names;
}

core::DesignSpace TwoStageOpamp::designSpace(const sim::ProcessCard& card) {
  const double minL = card.minL;
  // 64^5 * 16^2 * 64 * 64 ~= 1.1e15 grid points: the paper's "10^14" scale.
  return core::DesignSpace({
      {"w1", 0.4e-6, 20e-6, 64, true},
      {"w3", 0.4e-6, 20e-6, 64, true},
      {"w5", 0.4e-6, 40e-6, 64, true},
      {"w6", 1.0e-6, 100e-6, 64, true},
      {"w7", 0.5e-6, 50e-6, 64, true},
      {"l12", 1.0 * minL, 8.0 * minL, 16, false},
      {"l67", 1.0 * minL, 8.0 * minL, 16, false},
      {"cc", 50e-15, 5e-12, 64, true},
      {"ibias", 1e-6, 50e-6, 64, true},
  });
}

TwoStageOpamp::Testbench TwoStageOpamp::buildTestbench(
    const linalg::Vector& sizes, const sim::PvtCorner& corner) const {
  assert(sizes.size() == kParamCount);
  const sim::MosParams nmos =
      sim::applyPvt(card_.nmos, sim::MosType::kNmos, corner, card_.tnomK);
  const sim::MosParams pmos =
      sim::applyPvt(card_.pmos, sim::MosType::kPmos, corner, card_.tnomK);

  Testbench tb;
  sim::Netlist& nl = tb.netlist;
  nl.tempK = corner.tempK();
  const sim::NodeId vdd = nl.node("vdd");
  const sim::NodeId inp = nl.node("inp");
  const sim::NodeId inn = nl.node("inn");
  const sim::NodeId tail = nl.node("tail");
  const sim::NodeId d1 = nl.node("d1");
  const sim::NodeId out1 = nl.node("out1");
  const sim::NodeId out = nl.node("out");
  const sim::NodeId bias = nl.node("bias");

  const double vcm = 0.62 * corner.vdd;
  const std::size_t vddSrc = nl.addVSource(vdd, sim::kGround, corner.vdd);
  // Differential AC drive: +/- half on each input -> H(s) = v(out) / v_diff.
  tb.inpSource = nl.addVSource(inp, sim::kGround, vcm, +0.5);
  tb.innSource = nl.addVSource(inn, sim::kGround, vcm, -0.5);
  nl.addISource(vdd, bias, sizes[kIbias]);

  using sim::MosType;
  const sim::MosGeometry g1{sizes[kW1], sizes[kL12], 1.0};
  const sim::MosGeometry g3{sizes[kW3], sizes[kL12], 1.0};
  const sim::MosGeometry g5{sizes[kW5], sizes[kL67], 1.0};
  const sim::MosGeometry g6{sizes[kW6], sizes[kL67], 1.0};
  const sim::MosGeometry g7{sizes[kW7], sizes[kL67], 1.0};
  const sim::MosGeometry g8{kBiasDiodeWidth, sizes[kL67], 1.0};

  nl.addMosfet("M1", d1, inp, tail, sim::kGround, MosType::kNmos, g1, nmos);
  nl.addMosfet("M2", out1, inn, tail, sim::kGround, MosType::kNmos, g1, nmos);
  nl.addMosfet("M3", d1, d1, vdd, vdd, MosType::kPmos, g3, pmos);
  nl.addMosfet("M4", out1, d1, vdd, vdd, MosType::kPmos, g3, pmos);
  nl.addMosfet("M5", tail, bias, sim::kGround, sim::kGround, MosType::kNmos, g5,
               nmos);
  nl.addMosfet("M6", out, out1, vdd, vdd, MosType::kPmos, g6, pmos);
  nl.addMosfet("M7", out, bias, sim::kGround, sim::kGround, MosType::kNmos, g7,
               nmos);
  nl.addMosfet("M8", bias, bias, sim::kGround, sim::kGround, MosType::kNmos, g8,
               nmos);

  nl.addCapacitor(out1, out, sizes[kCc]);
  nl.addCapacitor(out, sim::kGround, kLoadCap);

  // DC operating point, warm-started near a plausible bias state.
  linalg::Vector guess(nl.nodeCount(), 0.0);
  guess[static_cast<std::size_t>(vdd)] = corner.vdd;
  guess[static_cast<std::size_t>(inp)] = vcm;
  guess[static_cast<std::size_t>(inn)] = vcm;
  guess[static_cast<std::size_t>(tail)] = vcm - 0.4;
  guess[static_cast<std::size_t>(d1)] = corner.vdd - 0.5;
  guess[static_cast<std::size_t>(out1)] = corner.vdd - 0.5;
  guess[static_cast<std::size_t>(out)] = corner.vdd * 0.5;
  guess[static_cast<std::size_t>(bias)] = 0.5;

  tb.out = out;
  tb.vddSource = vddSrc;
  tb.initialGuess = std::move(guess);
  tb.vdd = corner.vdd;
  return tb;
}

core::EvalResult TwoStageOpamp::measure(const Testbench& tb) {
  const Testbench* slot = &tb;
  core::EvalResult r;
  measureLanes(&slot, 1, &r);
  return r;
}

core::EvalResult TwoStageOpamp::evaluate(const linalg::Vector& sizes,
                                         const sim::PvtCorner& corner) const {
  return measure(buildTestbench(sizes, corner));
}

void TwoStageOpamp::evaluateBatch(const linalg::Vector* const* sizes,
                                  const sim::PvtCorner* corners,
                                  core::EvalResult* results,
                                  std::size_t count) const {
  for (std::size_t off = 0; off < count; off += sim::kSimLanes) {
    const std::size_t lanes =
        std::min<std::size_t>(sim::kSimLanes, count - off);
    std::array<Testbench, sim::kSimLanes> tbs;
    std::array<const Testbench*, sim::kSimLanes> slots{};
    for (std::size_t l = 0; l < lanes; ++l) {
      tbs[l] = buildTestbench(*sizes[off + l], corners[off + l]);
      slots[l] = &tbs[l];
    }
    measureLanes(slots.data(), lanes, results + off);
  }
}

double TwoStageOpamp::area(const linalg::Vector& sizes) const {
  assert(sizes.size() == kParamCount);
  const double um2 = 1e12;  // m^2 -> µm^2
  double a = 0.0;
  a += 2.0 * sizes[kW1] * sizes[kL12];  // M1, M2
  a += 2.0 * sizes[kW3] * sizes[kL12];  // M3, M4
  a += sizes[kW5] * sizes[kL67];
  a += sizes[kW6] * sizes[kL67];
  a += sizes[kW7] * sizes[kL67];
  a += kBiasDiodeWidth * sizes[kL67];
  a *= um2;
  a += sizes[kCc] / 2e-15;  // MIM density ~2 fF/µm^2
  return a;
}

std::vector<core::Spec> TwoStageOpamp::defaultSpecs() const {
  using core::SpecKind;
  // Calibrated per card during bring-up (see tests/calibration) so the CSP is
  // hard but solvable on the TT corner.
  if (card_.name == "bsim22") {
    return {{"gain_db", SpecKind::kAtLeast, 47.0},
            {"ugbw_hz", SpecKind::kAtLeast, 80e6},
            {"pm_deg", SpecKind::kAtLeast, 60.0},
            {"power_mw", SpecKind::kAtMost, 0.35}};
  }
  return {{"gain_db", SpecKind::kAtLeast, 50.0},
          {"ugbw_hz", SpecKind::kAtLeast, 100e6},
          {"pm_deg", SpecKind::kAtLeast, 60.0},
          {"power_mw", SpecKind::kAtMost, 0.40}};
}

core::SizingProblem TwoStageOpamp::makeProblem(
    std::vector<sim::PvtCorner> corners, std::vector<core::Spec> specs) const {
  core::SizingProblem p;
  p.name = "two_stage_opamp_" + card_.name;
  p.space = designSpace(card_);
  p.measurementNames = measurementNames();
  p.specs = std::move(specs);
  p.corners = std::move(corners);
  const TwoStageOpamp self = *this;  // capture by value (card ref is stable)
  p.evaluate = [self](const linalg::Vector& sizes, const sim::PvtCorner& c) {
    return self.evaluate(sizes, c);
  };
  p.evaluateBatch = [self](const linalg::Vector* const* sizes,
                           const sim::PvtCorner* corners,
                           core::EvalResult* results, std::size_t count) {
    self.evaluateBatch(sizes, corners, results, count);
  };
  p.area = [self](const linalg::Vector& sizes) { return self.area(sizes); };
  return p;
}

}  // namespace trdse::circuits
