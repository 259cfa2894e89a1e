#include "circuits/ldo.hpp"

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
constexpr double kVref = 0.45;       // bandgap-ish reference [V]
constexpr double kLoadCurrent = 2e-3;  // [A]
// External output capacitor with its ESR: the classic external-cap LDO
// compensation — dominant pole at the output, ESR zero recovering phase.
constexpr double kLoadCap = 1e-6;   // [F]
constexpr double kLoadEsr = 0.4;    // [ohm]
constexpr double kBiasDiodeWidth = 1e-6;
// Area reporting scale chosen so the human reference design reads ~650 "au"
// (the paper's Table IV unit). Passives (MIM cap, poly resistors) use honest
// density proxies and dominate, as they do in a real LDO layout.
constexpr double kAreaScale = 1.3e11;
}  // namespace

Ldo::Ldo(const sim::ProcessCard& card) : card_(card) {}

const std::vector<std::string>& Ldo::measurementNames() {
  static const std::vector<std::string> names = {
      "loop_gain_db", "loop_pm_deg", "vout_err_mv", "area_au", "iq_ua"};
  return names;
}

core::DesignSpace Ldo::designSpace(const sim::ProcessCard& card) {
  const double minL = card.minL;
  // 12 vars x 256 steps: log10(256^12) ~= 28.9 — the paper's 1e29.
  return core::DesignSpace({
      {"w1", 0.3e-6, 30e-6, 256, true},
      {"w3", 0.3e-6, 30e-6, 256, true},
      {"w5", 0.3e-6, 60e-6, 256, true},
      {"l1", 1.0 * minL, 10.0 * minL, 256, false},
      {"l3", 1.0 * minL, 10.0 * minL, 256, false},
      {"l5", 1.0 * minL, 10.0 * minL, 256, false},
      {"wp", 20e-6, 2000e-6, 256, true},
      {"lp", 1.0 * minL, 4.0 * minL, 256, false},
      {"r1", 5e3, 500e3, 256, true},
      {"r2", 5e3, 500e3, 256, true},
      {"cc", 0.1e-12, 20e-12, 256, true},
      {"ibias", 0.5e-6, 50e-6, 256, true},
  });
}

namespace {

/// A stamped regulator testbench plus the handles measurement needs.
struct LdoTestbench {
  sim::Netlist netlist;
  sim::NodeId tap = sim::kGround;
  sim::NodeId fbin = sim::kGround;
  sim::NodeId vout = sim::kGround;
  std::size_t vddSource = 0;
  linalg::Vector initialGuess;
  double vtarget = 0.0;
};

LdoTestbench buildLdoTestbench(const sim::ProcessCard& card,
                               const linalg::Vector& sizes,
                               const sim::PvtCorner& corner) {
  assert(sizes.size() == Ldo::kParamCount);
  const sim::MosParams nmos =
      sim::applyPvt(card.nmos, sim::MosType::kNmos, corner, card.tnomK);
  const sim::MosParams pmos =
      sim::applyPvt(card.pmos, sim::MosType::kPmos, corner, card.tnomK);

  LdoTestbench tb;
  sim::Netlist& nl = tb.netlist;
  nl.tempK = corner.tempK();
  const sim::NodeId vdd = nl.node("vdd");
  const sim::NodeId vref = nl.node("vref");
  const sim::NodeId fbin = nl.node("fbin");  // EA inverting input
  const sim::NodeId tap = nl.node("tap");    // divider tap
  const sim::NodeId tail = nl.node("tail");
  const sim::NodeId d1 = nl.node("d1");
  const sim::NodeId gate = nl.node("gate");  // EA output = pass gate
  const sim::NodeId vout = nl.node("vout");
  const sim::NodeId bias = nl.node("bias");

  const std::size_t vddSrc = nl.addVSource(vdd, sim::kGround, corner.vdd);
  nl.addVSource(vref, sim::kGround, kVref);
  // Series loop-gain injection: vdc = 0 keeps the closed loop intact in DC;
  // vac = 1 makes T(s) = v(tap) / v(fbin) in AC.
  nl.addVSource(fbin, tap, 0.0, 1.0);
  nl.addISource(vdd, bias, sizes[Ldo::kIbias]);
  nl.addISource(vout, sim::kGround, kLoadCurrent);

  using sim::MosType;
  const sim::MosGeometry g1{sizes[Ldo::kW1], sizes[Ldo::kL1], 1.0};
  const sim::MosGeometry g3{sizes[Ldo::kW3], sizes[Ldo::kL3], 1.0};
  const sim::MosGeometry g5{sizes[Ldo::kW5], sizes[Ldo::kL5], 1.0};
  const sim::MosGeometry gp{sizes[Ldo::kWp], sizes[Ldo::kLp], 1.0};
  const sim::MosGeometry g8{kBiasDiodeWidth, sizes[Ldo::kL5], 1.0};

  // Error amplifier: the PMOS pass stage inverts (gate up -> vout down), so
  // the EA must be non-inverting from fbin to its output for net negative
  // feedback. With the mirror diode on M1's drain, the M1 gate is the
  // non-inverting input: fbin drives M1, vref drives M2.
  nl.addMosfet("M1", d1, fbin, tail, sim::kGround, MosType::kNmos, g1, nmos);
  nl.addMosfet("M2", gate, vref, tail, sim::kGround, MosType::kNmos, g1, nmos);
  nl.addMosfet("M3", d1, d1, vdd, vdd, MosType::kPmos, g3, pmos);
  nl.addMosfet("M4", gate, d1, vdd, vdd, MosType::kPmos, g3, pmos);
  nl.addMosfet("M5", tail, bias, sim::kGround, sim::kGround, MosType::kNmos, g5,
               nmos);
  nl.addMosfet("M8", bias, bias, sim::kGround, sim::kGround, MosType::kNmos, g8,
               nmos);
  nl.addMosfet("MP", vout, gate, vdd, vdd, MosType::kPmos, gp, pmos);

  nl.addResistor(vout, tap, sizes[Ldo::kR1]);
  nl.addResistor(tap, sim::kGround, sizes[Ldo::kR2]);
  nl.addCapacitor(gate, sim::kGround, sizes[Ldo::kCc]);
  const sim::NodeId esr = nl.node("esr");
  nl.addCapacitor(vout, esr, kLoadCap);
  nl.addResistor(esr, sim::kGround, kLoadEsr);

  const double vtarget =
      kVref * (sizes[Ldo::kR1] + sizes[Ldo::kR2]) / sizes[Ldo::kR2];

  linalg::Vector guess(nl.nodeCount(), 0.0);
  guess[static_cast<std::size_t>(vdd)] = corner.vdd;
  guess[static_cast<std::size_t>(vref)] = kVref;
  guess[static_cast<std::size_t>(fbin)] = kVref;
  guess[static_cast<std::size_t>(tap)] = kVref;
  guess[static_cast<std::size_t>(tail)] = 0.1;
  guess[static_cast<std::size_t>(d1)] = corner.vdd - 0.4;
  guess[static_cast<std::size_t>(gate)] = corner.vdd - 0.4;
  guess[static_cast<std::size_t>(vout)] = vtarget;
  guess[static_cast<std::size_t>(bias)] = 0.4;

  tb.tap = tap;
  tb.fbin = fbin;
  tb.vout = vout;
  tb.vddSource = vddSrc;
  tb.initialGuess = std::move(guess);
  tb.vtarget = vtarget;
  return tb;
}

/// Append one loop-gain point T = v(tap)/v(fbin); false when the injection
/// node response is numerically dead (the lane then measures as failed).
/// Shared by the lane sweep and the non-finite lane replay so the guard and
/// the division are identical.
bool appendLoopPoint(const std::complex<double>& vTap,
                     const std::complex<double>& vFb,
                     std::vector<std::complex<double>>& t) {
  if (std::abs(vFb) < 1e-18) return false;
  t.push_back(vTap / vFb);
  return true;
}

/// Assemble the result from an operating point + completed loop sweep.
core::EvalResult resultFromLoop(const Ldo& ldo, const LdoTestbench& tb,
                                const sim::DcResult& op,
                                const std::vector<double>& freqs,
                                const std::vector<std::complex<double>>& t,
                                const linalg::Vector& sizes) {
  const sim::LoopMetrics lm = sim::analyzeLoop(freqs, t);

  core::EvalResult r;
  r.ok = true;
  r.measurements.assign(Ldo::kMeasCount, 0.0);
  r.measurements[Ldo::kLoopGainDb] = lm.dcGainDb;
  r.measurements[Ldo::kLoopPmDeg] = lm.crossesUnity ? lm.phaseMarginDeg : 0.0;
  r.measurements[Ldo::kVoutErrMv] =
      std::abs(op.nodeVoltage(tb.vout) - tb.vtarget) * 1e3;
  r.measurements[Ldo::kAreaAu] = ldo.area(sizes);
  // Quiescent = supply current minus the delivered load current.
  const double idd = std::abs(op.vsourceCurrent(tb.vddSource));
  r.measurements[Ldo::kIqUa] = std::max(0.0, idd - kLoadCurrent) * 1e6;
  return r;
}

}  // namespace

core::EvalResult Ldo::evaluate(const linalg::Vector& sizes,
                               const sim::PvtCorner& corner) const {
  const linalg::Vector* slot = &sizes;
  core::EvalResult r;
  evaluateBatch(&slot, &corner, &r, 1);
  return r;
}

void Ldo::evaluateBatch(const linalg::Vector* const* sizes,
                        const sim::PvtCorner* corners,
                        core::EvalResult* results, std::size_t count) const {
  const auto freqs = sim::AcSolver::logSpace(10.0, 5e9, 110);
  for (std::size_t off = 0; off < count; off += sim::kSimLanes) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(sim::kSimLanes, count - off));
    std::array<LdoTestbench, sim::kSimLanes> tbs;
    std::array<const sim::Netlist*, sim::kSimLanes> nls{};
    std::array<const linalg::Vector*, sim::kSimLanes> guesses{};
    for (int l = 0; l < lanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      tbs[li] = buildLdoTestbench(card_, *sizes[off + li], corners[off + li]);
      nls[li] = &tbs[li].netlist;
      guesses[li] = &tbs[li].initialGuess;
    }
    const auto ops = sim::solveDcBatch(nls, guesses);

    std::array<const sim::Netlist*, sim::kSimLanes> acNls{};
    std::array<const sim::DcResult*, sim::kSimLanes> acOps{};
    bool anyAc = false;
    for (int l = 0; l < lanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (!ops[li].converged) continue;
      acNls[li] = nls[li];
      acOps[li] = &ops[li];
      anyAc = true;
    }

    std::array<std::vector<std::complex<double>>, sim::kSimLanes> t;
    std::array<bool, sim::kSimLanes> dead{};
    if (anyAc) {
      sim::AcBatch ac(acNls, acOps);
      for (int l = 0; l < lanes; ++l)
        if (acOps[static_cast<std::size_t>(l)])
          t[static_cast<std::size_t>(l)].reserve(freqs.size());
      for (const double f : freqs) {
        ac.solveAt(f);
        for (int l = 0; l < lanes; ++l) {
          const auto li = static_cast<std::size_t>(l);
          if (!acOps[li] || dead[li]) continue;
          if (!appendLoopPoint(ac.nodeVoltage(l, tbs[li].tap),
                               ac.nodeVoltage(l, tbs[li].fbin), t[li]))
            dead[li] = true;
        }
      }
      // A lane whose lane-blocked factorization went non-finite is replayed
      // through the scalar AcSolver, which is the equivalence reference.
      for (int l = 0; l < lanes; ++l) {
        const auto li = static_cast<std::size_t>(l);
        if (!acOps[li] || ac.laneFinite(l)) continue;
        const sim::AcSolver* solver = ac.laneSolver(l);
        t[li].clear();
        dead[li] = false;
        for (double f : freqs) {
          const auto x = solver->solveAt(f);
          if (!appendLoopPoint(solver->nodeVoltage(x, tbs[li].tap),
                               solver->nodeVoltage(x, tbs[li].fbin), t[li])) {
            dead[li] = true;
            break;
          }
        }
      }
    }

    for (int l = 0; l < lanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      results[off + li] =
          (acOps[li] && !dead[li])
              ? resultFromLoop(*this, tbs[li], ops[li], freqs, t[li],
                               *sizes[off + li])
              : core::EvalResult{};
    }
  }
}

double Ldo::area(const linalg::Vector& sizes) const {
  assert(sizes.size() == kParamCount);
  double a = 0.0;
  a += 2.0 * sizes[kW1] * sizes[kL1];
  a += 2.0 * sizes[kW3] * sizes[kL3];
  a += sizes[kW5] * sizes[kL5];
  a += kBiasDiodeWidth * sizes[kL5];
  a += sizes[kWp] * sizes[kLp];            // pass device
  a += sizes[kCc] / 2e-3;                  // MIM cap at 2 fF/µm^2, in m^2
  a += (sizes[kR1] + sizes[kR2]) * 2e-14;  // poly resistor area proxy
  return a * kAreaScale;
}

std::vector<core::Spec> Ldo::defaultSpecs() const {
  using core::SpecKind;
  // The paper's spec row reads "loop gain > 40 dB, area < 650"; our EKV
  // substrate produces loop gains around 90-110 dB, so the gain limit is
  // re-centred to sit ~2 dB above the human reference exactly as the paper's
  // 40 dB sits above its 38 dB human row (see EXPERIMENTS.md).
  return {{"loop_gain_db", SpecKind::kAtLeast, 90.0},
          {"loop_pm_deg", SpecKind::kAtLeast, 45.0},
          {"vout_err_mv", SpecKind::kAtMost, 10.0},
          {"area_au", SpecKind::kAtMost, 650.0}};
}

core::SizingProblem Ldo::makeProblem(std::vector<sim::PvtCorner> corners,
                                     std::vector<core::Spec> specs) const {
  core::SizingProblem p;
  p.name = "ldo_" + card_.name;
  p.space = designSpace(card_);
  p.measurementNames = measurementNames();
  p.specs = std::move(specs);
  p.corners = std::move(corners);
  const Ldo self = *this;
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

linalg::Vector Ldo::humanReferenceSizing() {
  // A competent hand design sitting exactly where the paper's human row
  // sits: area at the 650 limit, every spec met except worst-corner loop
  // gain (~88.3 dB against the 90 dB spec on SS/0.70V/125C).
  linalg::Vector s(kParamCount);
  s[kW1] = 1.893e-6;
  s[kW3] = 4.266e-6;
  s[kW5] = 4.838e-7;
  s[kL1] = 2.217e-7;
  s[kL3] = 2.918e-7;
  s[kL5] = 1.032e-7;
  s[kWp] = 4.009e-4;
  s[kLp] = 9.939e-8;
  s[kR1] = 5.0e3;
  s[kR2] = 2.05e5;
  s[kCc] = 1.5e-12;
  s[kIbias] = 2.428e-5;
  return s;
}

}  // namespace trdse::circuits
