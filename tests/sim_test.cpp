#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/mosfet.hpp"
#include "sim/netlist.hpp"
#include "sim/process.hpp"
#include "sim/transient.hpp"

namespace trdse::sim {
namespace {

// ---------- Device model ----------

TEST(Mosfet, NmosCurrentIncreasesWithVgs) {
  const auto& card = bsim45Card();
  const MosGeometry g{2e-6, 90e-9, 1.0};
  double prev = -1.0;
  for (double vgs = 0.3; vgs <= 1.0; vgs += 0.1) {
    const MosOp op = evalMos(card.nmos, MosType::kNmos, g, 0.8, vgs, 0.0, 0.0, 300.15);
    EXPECT_GT(op.ids, prev);
    prev = op.ids;
  }
}

TEST(Mosfet, SubthresholdCurrentIsSmallButNonzero) {
  const auto& card = bsim45Card();
  const MosGeometry g{2e-6, 90e-9, 1.0};
  const MosOp off = evalMos(card.nmos, MosType::kNmos, g, 0.8, 0.1, 0.0, 0.0, 300.15);
  const MosOp on = evalMos(card.nmos, MosType::kNmos, g, 0.8, 0.9, 0.0, 0.0, 300.15);
  EXPECT_GT(off.ids, 0.0);
  EXPECT_LT(off.ids, on.ids * 1e-3);
}

TEST(Mosfet, PmosMirrorsNmos) {
  const auto& card = bsim45Card();
  const MosGeometry g{2e-6, 90e-9, 1.0};
  // PMOS with source at 1.1 V, gate low -> conducts, current *into* drain is
  // negative by our convention.
  const MosOp p = evalMos(card.pmos, MosType::kPmos, g, 0.3, 0.2, 1.1, 1.1, 300.15);
  EXPECT_LT(p.ids, 0.0);
  EXPECT_GT(p.gm, 0.0);
  EXPECT_GT(p.gds, 0.0);
}

TEST(Mosfet, SaturationOutputConductanceFromClm) {
  const auto& card = bsim45Card();
  MosGeometry shortL{2e-6, 45e-9, 1.0};
  MosGeometry longL{2e-6, 360e-9, 1.0};
  const MosOp s = evalMos(card.nmos, MosType::kNmos, shortL, 0.8, 0.7, 0.0, 0.0, 300.15);
  const MosOp l = evalMos(card.nmos, MosType::kNmos, longL, 0.8, 0.7, 0.0, 0.0, 300.15);
  // Intrinsic gain gm/gds improves with channel length.
  EXPECT_GT(l.gm / l.gds, s.gm / s.gds);
}

/// Analytic derivatives must match finite differences everywhere, including
/// across the subthreshold/saturation transition — the property the Newton
/// solver's convergence rests on.
class MosfetDerivativeTest
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(MosfetDerivativeTest, MatchesFiniteDifference) {
  const auto [vg, vd, typeInt] = GetParam();
  const MosType type = typeInt == 0 ? MosType::kNmos : MosType::kPmos;
  const auto& card = bsim45Card();
  const MosParams& params = type == MosType::kNmos ? card.nmos : card.pmos;
  const MosGeometry g{3e-6, 90e-9, 1.0};
  const double vs = type == MosType::kNmos ? 0.1 : 1.0;
  const double vb = type == MosType::kNmos ? 0.0 : 1.1;

  const MosOp op = evalMos(params, type, g, vd, vg, vs, vb, 300.15);
  constexpr double kEps = 1e-7;
  auto ids = [&](double vdx, double vgx, double vsx, double vbx) {
    return evalMos(params, type, g, vdx, vgx, vsx, vbx, 300.15).ids;
  };
  EXPECT_NEAR(op.dIdVd,
              (ids(vd + kEps, vg, vs, vb) - ids(vd - kEps, vg, vs, vb)) / (2 * kEps),
              std::abs(op.dIdVd) * 1e-4 + 1e-9);
  EXPECT_NEAR(op.dIdVg,
              (ids(vd, vg + kEps, vs, vb) - ids(vd, vg - kEps, vs, vb)) / (2 * kEps),
              std::abs(op.dIdVg) * 1e-4 + 1e-9);
  EXPECT_NEAR(op.dIdVs,
              (ids(vd, vg, vs + kEps, vb) - ids(vd, vg, vs - kEps, vb)) / (2 * kEps),
              std::abs(op.dIdVs) * 1e-4 + 1e-9);
  EXPECT_NEAR(op.dIdVb,
              (ids(vd, vg, vs, vb + kEps) - ids(vd, vg, vs, vb - kEps)) / (2 * kEps),
              std::abs(op.dIdVb) * 1e-4 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, MosfetDerivativeTest,
    ::testing::Combine(::testing::Values(0.2, 0.45, 0.6, 0.9),  // vg
                       ::testing::Values(0.15, 0.5, 1.0),       // vd
                       ::testing::Values(0, 1)));               // type

// ---------- Process / PVT ----------

TEST(Process, CornersShiftThreshold) {
  const auto& card = bsim45Card();
  const PvtCorner ff{ProcessCorner::kFF, 1.1, 27.0};
  const PvtCorner ss{ProcessCorner::kSS, 1.1, 27.0};
  const MosParams pFF = applyPvt(card.nmos, MosType::kNmos, ff, card.tnomK);
  const MosParams pSS = applyPvt(card.nmos, MosType::kNmos, ss, card.tnomK);
  EXPECT_LT(pFF.vth0, card.nmos.vth0);
  EXPECT_GT(pSS.vth0, card.nmos.vth0);
  EXPECT_GT(pFF.kp, pSS.kp);
}

TEST(Process, MixedCornersSplitByType) {
  const auto& card = bsim45Card();
  const PvtCorner fs{ProcessCorner::kFS, 1.1, 27.0};
  const MosParams n = applyPvt(card.nmos, MosType::kNmos, fs, card.tnomK);
  const MosParams p = applyPvt(card.pmos, MosType::kPmos, fs, card.tnomK);
  EXPECT_LT(n.vth0, card.nmos.vth0);  // fast NMOS
  EXPECT_GT(p.vth0, card.pmos.vth0);  // slow PMOS
}

TEST(Process, TemperatureDegradesMobility) {
  const auto& card = bsim45Card();
  const PvtCorner hot{ProcessCorner::kTT, 1.1, 125.0};
  const PvtCorner cold{ProcessCorner::kTT, 1.1, -40.0};
  const MosParams pH = applyPvt(card.nmos, MosType::kNmos, hot, card.tnomK);
  const MosParams pC = applyPvt(card.nmos, MosType::kNmos, cold, card.tnomK);
  EXPECT_LT(pH.kp, pC.kp);
  EXPECT_LT(pH.vth0, pC.vth0);
}

TEST(Process, CardsAreDistinct) {
  EXPECT_NE(bsim45Card().nmos.kp, bsim22Card().nmos.kp);
  EXPECT_LT(n5Card().minL, n6Card().minL);
  EXPECT_EQ(cardByName("bsim22").name, "bsim22");
}

// ---------- DC analysis ----------

TEST(Dc, ResistorDivider) {
  Netlist nl;
  const NodeId vin = nl.node("in");
  const NodeId mid = nl.node("mid");
  nl.addVSource(vin, kGround, 2.0);
  nl.addResistor(vin, mid, 1e3);
  nl.addResistor(mid, kGround, 3e3);
  const DcResult r = DcSolver(nl).solve();
  ASSERT_TRUE(r.converged);
  // gmin (1e-12 S to ground) shifts the exact answer by ~nV.
  EXPECT_NEAR(r.nodeVoltage(mid), 1.5, 1e-6);
  EXPECT_NEAR(r.vsourceCurrent(0), -2.0 / 4e3, 1e-9);  // flows out of +
}

TEST(Dc, CurrentSourceIntoResistor) {
  Netlist nl;
  const NodeId n1 = nl.node("n1");
  nl.addISource(kGround, n1, 1e-3);  // 1 mA into n1
  nl.addResistor(n1, kGround, 2e3);
  const DcResult r = DcSolver(nl).solve();
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.nodeVoltage(n1), 2.0, 1e-6);
}

TEST(Dc, VcvsAmplifies) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(in, kGround, 0.1);
  nl.addVcvs(out, kGround, in, kGround, 10.0);
  nl.addResistor(out, kGround, 1e3);
  const DcResult r = DcSolver(nl).solve();
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.nodeVoltage(out), 1.0, 1e-9);
}

TEST(Dc, DiodeConnectedMosfetBias) {
  // Current mirror reference: I into a diode-connected NMOS.
  const auto& card = bsim45Card();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId bias = nl.node("bias");
  nl.addVSource(vdd, kGround, 1.1);
  nl.addISource(vdd, bias, 20e-6);
  nl.addMosfet("M8", bias, bias, kGround, kGround, MosType::kNmos,
               {4e-6, 90e-9, 1.0}, card.nmos);
  const DcResult r = DcSolver(nl).solve();
  ASSERT_TRUE(r.converged);
  // Gate settles somewhat above threshold.
  EXPECT_GT(r.nodeVoltage(bias), 0.3);
  EXPECT_LT(r.nodeVoltage(bias), 0.8);
  // Device carries the reference current.
  EXPECT_NEAR(r.mosOps[0].ids, 20e-6, 1e-6);
}

TEST(Dc, CurrentMirrorCopies) {
  const auto& card = bsim45Card();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId bias = nl.node("bias");
  const NodeId out = nl.node("out");
  nl.addVSource(vdd, kGround, 1.1);
  nl.addISource(vdd, bias, 10e-6);
  nl.addMosfet("M1", bias, bias, kGround, kGround, MosType::kNmos,
               {4e-6, 180e-9, 1.0}, card.nmos);
  nl.addMosfet("M2", out, bias, kGround, kGround, MosType::kNmos,
               {8e-6, 180e-9, 1.0}, card.nmos);  // 2x width
  nl.addResistor(vdd, out, 10e3);
  const DcResult r = DcSolver(nl).solve();
  ASSERT_TRUE(r.converged);
  // 2x mirror: ~20 µA through the resistor (CLM adds a few percent).
  const double iOut = (1.1 - r.nodeVoltage(out)) / 10e3;
  EXPECT_NEAR(iOut, 20e-6, 4e-6);
}

TEST(Dc, CmosInverterTransfersLogic) {
  const auto& card = bsim45Card();
  for (double vin : {0.0, 1.1}) {
    Netlist nl;
    const NodeId vdd = nl.node("vdd");
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.addVSource(vdd, kGround, 1.1);
    nl.addVSource(in, kGround, vin);
    nl.addMosfet("MP", out, in, vdd, vdd, MosType::kPmos, {2e-6, 45e-9, 1.0},
                 card.pmos);
    nl.addMosfet("MN", out, in, kGround, kGround, MosType::kNmos,
                 {1e-6, 45e-9, 1.0}, card.nmos);
    const DcResult r = DcSolver(nl).solve();
    ASSERT_TRUE(r.converged);
    if (vin < 0.5) {
      EXPECT_GT(r.nodeVoltage(out), 1.0);
    } else {
      EXPECT_LT(r.nodeVoltage(out), 0.1);
    }
  }
}

// ---------- AC analysis ----------

TEST(Ac, RcLowPassPole) {
  // R = 1k, C = 1µ -> f3dB = 159.15 Hz.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(in, kGround, 0.0, 1.0);
  nl.addResistor(in, out, 1e3);
  nl.addCapacitor(out, kGround, 1e-6);
  const DcResult op = DcSolver(nl).solve();
  ASSERT_TRUE(op.converged);
  const AcSolver ac(nl, op);
  const double f3 = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-6);
  const auto x = ac.solveAt(f3);
  EXPECT_NEAR(std::abs(ac.nodeVoltage(x, out)), 1.0 / std::sqrt(2.0), 1e-3);
  const auto xLow = ac.solveAt(f3 / 1000.0);
  EXPECT_NEAR(std::abs(ac.nodeVoltage(xLow, out)), 1.0, 1e-4);
  // Phase at the pole is -45 degrees.
  EXPECT_NEAR(std::arg(ac.nodeVoltage(x, out)) * 180.0 / std::numbers::pi, -45.0,
              0.5);
}

TEST(Ac, CommonSourceGainMatchesGmRo) {
  const auto& card = bsim45Card();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(vdd, kGround, 1.1);
  nl.addVSource(in, kGround, 0.55, 1.0);
  nl.addMosfet("M1", out, in, kGround, kGround, MosType::kNmos,
               {4e-6, 180e-9, 1.0}, card.nmos);
  nl.addResistor(vdd, out, 20e3);
  const DcResult op = DcSolver(nl).solve();
  ASSERT_TRUE(op.converged);
  const AcSolver ac(nl, op);
  const auto x = ac.solveAt(100.0);
  const double gain = std::abs(ac.nodeVoltage(x, out));
  const MosOp& m = op.mosOps[0];
  const double expected = m.gm * (1.0 / (1.0 / 20e3 + m.gds));
  EXPECT_NEAR(gain, expected, expected * 0.02);
}

TEST(Ac, LogSpaceGrid) {
  const auto f = AcSolver::logSpace(10.0, 1e6, 6);
  ASSERT_EQ(f.size(), 6u);
  EXPECT_NEAR(f.front(), 10.0, 1e-9);
  EXPECT_NEAR(f.back(), 1e6, 1e-3);
  EXPECT_NEAR(f[1] / f[0], 10.0, 1e-6);
}

TEST(Ac, AnalyzeLoopSinglePole) {
  // Synthetic single-pole response: H = A / (1 + jf/fp).
  const double a0 = 1000.0;
  const double fp = 1e3;
  const auto freqs = AcSolver::logSpace(10.0, 1e8, 200);
  std::vector<std::complex<double>> h;
  for (double f : freqs) h.push_back(a0 / std::complex<double>(1.0, f / fp));
  const LoopMetrics m = analyzeLoop(freqs, h);
  EXPECT_TRUE(m.crossesUnity);
  EXPECT_NEAR(m.dcGainDb, 60.0, 0.1);
  EXPECT_NEAR(m.unityGainHz, a0 * fp, a0 * fp * 0.02);  // GBW product
  EXPECT_NEAR(m.phaseMarginDeg, 90.0, 1.0);
}

TEST(Ac, AnalyzeLoopTwoPole) {
  const double a0 = 1000.0;
  const double fp1 = 1e3;
  const double fp2 = 1e6;
  const auto freqs = AcSolver::logSpace(10.0, 1e9, 300);
  std::vector<std::complex<double>> h;
  for (double f : freqs)
    h.push_back(a0 / (std::complex<double>(1.0, f / fp1) *
                      std::complex<double>(1.0, f / fp2)));
  const LoopMetrics m = analyzeLoop(freqs, h);
  EXPECT_TRUE(m.crossesUnity);
  // The second pole pulls the crossover to ~0.79 MHz, giving the analytic
  // PM = 180 - 90 - atan(0.786) = 51.8 degrees.
  EXPECT_NEAR(m.phaseMarginDeg, 51.8, 2.0);
  EXPECT_LT(m.unityGainHz, 1e6);
}

// ---------- Transient analysis ----------

TEST(Transient, RcChargingCurve) {
  // Step from the initial condition 0 through R into C: v = V(1 - e^{-t/RC}).
  Netlist nl;
  const NodeId vin = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(vin, kGround, 1.0);
  nl.addResistor(vin, out, 1e3);
  nl.addCapacitor(out, kGround, 1e-9);  // tau = 1 µs
  TransientOptions opts;
  opts.tStop = 3e-6;
  opts.dt = 5e-9;
  opts.includeDeviceCaps = false;
  linalg::Vector ic(nl.nodeCount(), 0.0);
  ic[static_cast<std::size_t>(vin)] = 1.0;
  const TransientResult r = TransientSolver(nl, opts).run(ic);
  ASSERT_TRUE(r.completed);
  const Waveform w = r.waveform(out);
  // Compare against the analytic curve at t = tau and t = 2 tau.
  const auto at = [&](double t) {
    for (std::size_t i = 0; i < w.t.size(); ++i)
      if (w.t[i] >= t) return w.v[i];
    return w.v.back();
  };
  EXPECT_NEAR(at(1e-6), 1.0 - std::exp(-1.0), 5e-3);
  EXPECT_NEAR(at(2e-6), 1.0 - std::exp(-2.0), 5e-3);
}

TEST(Transient, RingOscillatorOscillates) {
  const auto& card = bsim45Card();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  nl.addVSource(vdd, kGround, 1.1);
  NodeId ring[3];
  for (int i = 0; i < 3; ++i) ring[i] = nl.node("r" + std::to_string(i));
  for (int i = 0; i < 3; ++i) {
    const NodeId in = ring[i];
    const NodeId out = ring[(i + 1) % 3];
    nl.addMosfet("MP" + std::to_string(i), out, in, vdd, vdd, MosType::kPmos,
                 {2e-6, 45e-9, 1.0}, card.pmos);
    nl.addMosfet("MN" + std::to_string(i), out, in, kGround, kGround,
                 MosType::kNmos, {1e-6, 45e-9, 1.0}, card.nmos);
    nl.addCapacitor(out, kGround, 5e-15);
  }
  const DcResult op = DcSolver(nl).solve();
  ASSERT_TRUE(op.converged);
  linalg::Vector ic = op.v;
  ic[static_cast<std::size_t>(ring[0])] += 0.1;
  TransientOptions opts;
  opts.tStop = 2e-9;
  opts.dt = 1e-12;
  const TransientResult r = TransientSolver(nl, opts).run(ic);
  ASSERT_TRUE(r.completed);
  const Waveform w = r.waveform(ring[2]);
  const double f = estimateFrequency(w, 0.55, 3);
  EXPECT_GT(f, 1e9);  // a 45nm 3-stage ring runs in the GHz range
  EXPECT_GT(steadyStateAmplitude(w, 0.4), 0.5);
}

TEST(Transient, BranchCurrentRecorded) {
  Netlist nl;
  const NodeId vin = nl.node("in");
  nl.addVSource(vin, kGround, 1.0);
  nl.addResistor(vin, kGround, 1e3);
  TransientOptions opts;
  opts.tStop = 1e-6;
  opts.dt = 1e-7;
  opts.includeDeviceCaps = false;
  linalg::Vector ic(nl.nodeCount(), 0.0);
  ic[static_cast<std::size_t>(vin)] = 1.0;
  const TransientResult r = TransientSolver(nl, opts).run(ic);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.meanVsourceCurrent(0), 1e-3, 1e-6);
}

TEST(Transient, TailWindowsClampToTheRun) {
  // A trailing fraction of 0 is an empty window (0.0), 1 the whole run, and
  // anything above 1 clamps to it: neither helper reads outside the trace.
  Waveform w;
  w.t = {0.0, 1.0, 2.0, 3.0};
  w.v = {0.0, 2.0, -1.0, 0.5};
  EXPECT_EQ(steadyStateAmplitude(w, 0.0), 0.0);
  EXPECT_EQ(steadyStateAmplitude(w, 0.5), 1.5);
  EXPECT_EQ(steadyStateAmplitude(w, 1.0), 3.0);
  EXPECT_EQ(steadyStateAmplitude(w, 1.5), 3.0);

  TransientResult r;
  r.nodeCount = 1;
  r.branchCount = 1;
  r.times = {0.0, 1.0, 2.0, 3.0};
  r.voltages = {0.0, 0.0, 0.0, 0.0};
  r.branchCurrents = {0.0, -1.0, 2.0, -3.0};
  // The t = 0 row never counts.
  EXPECT_EQ(r.meanVsourceCurrent(0, 0.0), 0.0);
  EXPECT_EQ(r.meanVsourceCurrent(0, 0.5), 2.5);
  EXPECT_EQ(r.meanVsourceCurrent(0, 1.0), 2.0);
  EXPECT_EQ(r.meanVsourceCurrent(0, 1.5), 2.0);
}

TEST(Transient, CrossingDetection) {
  Waveform w;
  for (int i = 0; i <= 100; ++i) {
    const double t = i * 1e-9;
    w.t.push_back(t);
    w.v.push_back(std::sin(2.0 * std::numbers::pi * 50e6 * t));  // 50 MHz
  }
  w.valid = true;
  const double f = estimateFrequency(w, 0.0, 2);
  EXPECT_NEAR(f, 50e6, 2e6);
}

}  // namespace
}  // namespace trdse::sim
