#include "circuits/folded_cascode.hpp"

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
constexpr double kLoadCap = 500e-15;
constexpr double kBiasDiodeWidth = 2e-6;

/// A stamped OTA testbench plus the handles measurement needs.
struct FcTestbench {
  sim::Netlist netlist;
  sim::NodeId out = sim::kGround;
  std::size_t vddSource = 0;
  linalg::Vector initialGuess;
  double vdd = 0.0;
};

/// Assemble the result from an operating point + completed sweep.
core::EvalResult resultFromSweep(const FcTestbench& tb, const sim::DcResult& op,
                                 const std::vector<double>& freqs,
                                 const std::vector<std::complex<double>>& h) {
  const sim::LoopMetrics lm = sim::analyzeLoop(freqs, h);
  if (!lm.crossesUnity) return {};

  core::EvalResult r;
  r.ok = true;
  r.measurements.assign(FoldedCascodeOta::kMeasCount, 0.0);
  r.measurements[FoldedCascodeOta::kGainDb] = lm.dcGainDb;
  r.measurements[FoldedCascodeOta::kUgbwHz] = lm.unityGainHz;
  r.measurements[FoldedCascodeOta::kPmDeg] = lm.phaseMarginDeg;
  r.measurements[FoldedCascodeOta::kPowerMw] =
      std::abs(op.vsourceCurrent(tb.vddSource)) * tb.vdd * 1e3;
  return r;
}
}  // namespace

FoldedCascodeOta::FoldedCascodeOta(const sim::ProcessCard& card) : card_(card) {}

const std::vector<std::string>& FoldedCascodeOta::measurementNames() {
  static const std::vector<std::string> names = {"gain_db", "ugbw_hz", "pm_deg",
                                                 "power_mw"};
  return names;
}

core::DesignSpace FoldedCascodeOta::designSpace(const sim::ProcessCard& card) {
  const double minL = card.minL;
  return core::DesignSpace({
      {"w1", 0.5e-6, 30e-6, 64, true},
      {"w3", 0.5e-6, 40e-6, 64, true},
      {"w5", 0.5e-6, 40e-6, 64, true},
      {"w7", 0.5e-6, 40e-6, 64, true},
      {"w9", 0.5e-6, 40e-6, 64, true},
      {"l", 1.0 * minL, 6.0 * minL, 16, false},
      {"ibias", 2e-6, 80e-6, 64, true},
  });
}

namespace {
FcTestbench buildFcTestbench(const sim::ProcessCard& card,
                             const linalg::Vector& sizes,
                             const sim::PvtCorner& corner) {
  using P = FoldedCascodeOta;
  assert(sizes.size() == P::kParamCount);
  const sim::MosParams nmos =
      sim::applyPvt(card.nmos, sim::MosType::kNmos, corner, card.tnomK);
  const sim::MosParams pmos =
      sim::applyPvt(card.pmos, sim::MosType::kPmos, corner, card.tnomK);

  FcTestbench tb;
  sim::Netlist& nl = tb.netlist;
  nl.tempK = corner.tempK();
  const sim::NodeId vdd = nl.node("vdd");
  const sim::NodeId inp = nl.node("inp");
  const sim::NodeId inn = nl.node("inn");
  const sim::NodeId tail = nl.node("tail");
  const sim::NodeId f1 = nl.node("f1");  // folding node, M1 side
  const sim::NodeId f2 = nl.node("f2");
  const sim::NodeId c1 = nl.node("c1");  // cascode output, mirror side
  const sim::NodeId out = nl.node("out");
  const sim::NodeId nbias = nl.node("nbias");
  const sim::NodeId pb1 = nl.node("pb1");
  const sim::NodeId pb2 = nl.node("pb2");
  const sim::NodeId nb2 = nl.node("nb2");

  const double vcm = 0.60 * corner.vdd;
  const std::size_t vddSrc = nl.addVSource(vdd, sim::kGround, corner.vdd);
  nl.addVSource(inp, sim::kGround, vcm, +0.5);
  nl.addVSource(inn, sim::kGround, vcm, -0.5);
  // Cascode bias rails (testbench-provided).
  nl.addVSource(pb1, sim::kGround, 0.45 * corner.vdd);
  nl.addVSource(pb2, sim::kGround, 0.30 * corner.vdd);
  nl.addVSource(nb2, sim::kGround, 0.68 * corner.vdd);
  nl.addISource(vdd, nbias, sizes[P::kIbias]);

  using sim::MosType;
  const double l = sizes[P::kL];
  const sim::MosGeometry g1{sizes[P::kW1], l, 1.0};
  const sim::MosGeometry g3{sizes[P::kW3], l, 1.0};
  const sim::MosGeometry g5{sizes[P::kW5], l, 1.0};
  const sim::MosGeometry g7{sizes[P::kW7], l, 1.0};
  const sim::MosGeometry g9{sizes[P::kW9], l, 1.0};
  const sim::MosGeometry g0{2.0 * sizes[P::kW1], l, 1.0};
  const sim::MosGeometry gd{kBiasDiodeWidth, l, 1.0};

  nl.addMosfet("M1", f1, inp, tail, sim::kGround, MosType::kNmos, g1, nmos);
  nl.addMosfet("M2", f2, inn, tail, sim::kGround, MosType::kNmos, g1, nmos);
  nl.addMosfet("M0", tail, nbias, sim::kGround, sim::kGround, MosType::kNmos,
               g0, nmos);
  nl.addMosfet("MB", nbias, nbias, sim::kGround, sim::kGround, MosType::kNmos,
               gd, nmos);
  nl.addMosfet("M3", f1, pb1, vdd, vdd, MosType::kPmos, g3, pmos);
  nl.addMosfet("M4", f2, pb1, vdd, vdd, MosType::kPmos, g3, pmos);
  nl.addMosfet("M5", c1, pb2, f1, vdd, MosType::kPmos, g5, pmos);
  nl.addMosfet("M6", out, pb2, f2, vdd, MosType::kPmos, g5, pmos);
  nl.addMosfet("M7", c1, nb2, nl.node("m1"), sim::kGround, MosType::kNmos, g7,
               nmos);
  nl.addMosfet("M8", out, nb2, nl.node("m2"), sim::kGround, MosType::kNmos, g7,
               nmos);
  // Mirror bottom: gates driven by the cascode output on the M7 side.
  nl.addMosfet("M9", nl.node("m1"), c1, sim::kGround, sim::kGround,
               MosType::kNmos, g9, nmos);
  nl.addMosfet("M10", nl.node("m2"), c1, sim::kGround, sim::kGround,
               MosType::kNmos, g9, nmos);

  nl.addCapacitor(out, sim::kGround, kLoadCap);

  linalg::Vector guess(nl.nodeCount(), 0.0);
  guess[static_cast<std::size_t>(vdd)] = corner.vdd;
  guess[static_cast<std::size_t>(inp)] = vcm;
  guess[static_cast<std::size_t>(inn)] = vcm;
  guess[static_cast<std::size_t>(tail)] = vcm - 0.4;
  guess[static_cast<std::size_t>(f1)] = corner.vdd - 0.3;
  guess[static_cast<std::size_t>(f2)] = corner.vdd - 0.3;
  guess[static_cast<std::size_t>(c1)] = 0.5 * corner.vdd;
  guess[static_cast<std::size_t>(out)] = 0.5 * corner.vdd;
  guess[static_cast<std::size_t>(nbias)] = 0.5;
  guess[static_cast<std::size_t>(pb1)] = 0.45 * corner.vdd;
  guess[static_cast<std::size_t>(pb2)] = 0.30 * corner.vdd;
  guess[static_cast<std::size_t>(nb2)] = 0.68 * corner.vdd;

  tb.out = out;
  tb.vddSource = vddSrc;
  tb.initialGuess = std::move(guess);
  tb.vdd = corner.vdd;
  return tb;
}
}  // namespace

core::EvalResult FoldedCascodeOta::evaluate(const linalg::Vector& sizes,
                                            const sim::PvtCorner& corner) const {
  const linalg::Vector* slot = &sizes;
  core::EvalResult r;
  evaluateBatch(&slot, &corner, &r, 1);
  return r;
}

void FoldedCascodeOta::evaluateBatch(const linalg::Vector* const* sizes,
                                     const sim::PvtCorner* corners,
                                     core::EvalResult* results,
                                     std::size_t count) const {
  const auto freqs = sim::AcSolver::logSpace(10.0, 20e9, 110);
  for (std::size_t off = 0; off < count; off += sim::kSimLanes) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(sim::kSimLanes, count - off));
    std::array<FcTestbench, sim::kSimLanes> tbs;
    std::array<const sim::Netlist*, sim::kSimLanes> nls{};
    std::array<const linalg::Vector*, sim::kSimLanes> guesses{};
    std::array<std::vector<std::complex<double>>, sim::kSimLanes> h;
    for (int l = 0; l < lanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      tbs[li] = buildFcTestbench(card_, *sizes[off + li], corners[off + li]);
      nls[li] = &tbs[li].netlist;
      guesses[li] = &tbs[li].initialGuess;
      h[li].reserve(freqs.size());
    }
    const auto ops = sim::solveDcAndSweepAc(
        nls, guesses, freqs, [&](int l, const sim::AcBatch& ac) {
          const auto li = static_cast<std::size_t>(l);
          h[li].push_back(ac.nodeVoltage(l, tbs[li].out));
        });
    for (int l = 0; l < lanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      results[off + li] = ops[li].converged
                              ? resultFromSweep(tbs[li], ops[li], freqs, h[li])
                              : core::EvalResult{};
    }
  }
}

double FoldedCascodeOta::area(const linalg::Vector& sizes) const {
  assert(sizes.size() == kParamCount);
  const double l = sizes[kL];
  double a = 0.0;
  a += 2.0 * sizes[kW1] * l;      // M1, M2
  a += 2.0 * sizes[kW1] * l;      // M0 (2x width)
  a += 2.0 * sizes[kW3] * l;      // M3, M4
  a += 2.0 * sizes[kW5] * l;      // M5, M6
  a += 2.0 * sizes[kW7] * l;      // M7, M8
  a += 2.0 * sizes[kW9] * l;      // M9, M10
  a += kBiasDiodeWidth * l;
  return a * 1e12;
}

std::vector<core::Spec> FoldedCascodeOta::defaultSpecs() const {
  using core::SpecKind;
  return {{"gain_db", SpecKind::kAtLeast, 72.0},
          {"ugbw_hz", SpecKind::kAtLeast, 150e6},
          {"pm_deg", SpecKind::kAtLeast, 60.0},
          {"power_mw", SpecKind::kAtMost, 0.25}};
}

core::SizingProblem FoldedCascodeOta::makeProblem(
    std::vector<sim::PvtCorner> corners, std::vector<core::Spec> specs) const {
  core::SizingProblem p;
  p.name = "folded_cascode_" + card_.name;
  p.space = designSpace(card_);
  p.measurementNames = measurementNames();
  p.specs = std::move(specs);
  p.corners = std::move(corners);
  const FoldedCascodeOta self = *this;
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
