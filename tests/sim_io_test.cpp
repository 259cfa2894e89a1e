// Tests for the netlist text parser/writer, the extended device set
// (diode, VCCS, inductor) and the small-signal noise analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/diode.hpp"
#include "sim/netlist_io.hpp"
#include "sim/noise.hpp"
#include "sim/transient.hpp"

namespace trdse::sim {
namespace {

const PvtCorner kTt{ProcessCorner::kTT, 1.1, 27.0};

// ---------- SPICE value parsing ----------

struct ValueCase {
  const char* text;
  double expected;
};

class SpiceValueTest : public ::testing::TestWithParam<ValueCase> {};

TEST_P(SpiceValueTest, ParsesSuffix) {
  const auto v = parseSpiceValue(GetParam().text);
  ASSERT_TRUE(v.has_value()) << GetParam().text;
  EXPECT_NEAR(*v, GetParam().expected, std::abs(GetParam().expected) * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceValueTest,
    ::testing::Values(ValueCase{"100", 100.0}, ValueCase{"2.2k", 2200.0},
                      ValueCase{"1meg", 1e6}, ValueCase{"3g", 3e9},
                      ValueCase{"2t", 2e12}, ValueCase{"10m", 10e-3},
                      ValueCase{"4u", 4e-6}, ValueCase{"7n", 7e-9},
                      ValueCase{"5p", 5e-12}, ValueCase{"20f", 20e-15},
                      ValueCase{"-0.45", -0.45}, ValueCase{"1e-9", 1e-9},
                      ValueCase{"2.2kohm", 2200.0}));

TEST(SpiceValue, RejectsGarbage) {
  EXPECT_FALSE(parseSpiceValue("abc").has_value());
  EXPECT_FALSE(parseSpiceValue("").has_value());
  EXPECT_FALSE(parseSpiceValue("1.2x7").has_value());
  EXPECT_FALSE(parseSpiceValue("nan").has_value());
  EXPECT_FALSE(parseSpiceValue("inf").has_value());
  EXPECT_FALSE(parseSpiceValue("-inf").has_value());
  EXPECT_FALSE(parseSpiceValue("1e308k").has_value());
}

// ---------- Netlist parsing ----------

TEST(NetlistIo, ParsesVoltageDividerAndSolves) {
  const std::string text = R"(
* a humble divider
V1 in 0 2.0
R1 in mid 1k
R2 mid 0 3k
.end
)";
  const auto parsed = parseNetlist(text, bsim45Card(), kTt);
  ASSERT_TRUE(parsed.netlist.has_value()) << parsed.error.message;
  const DcResult r = DcSolver(*parsed.netlist).solve();
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.nodeVoltage(parsed.netlist->findNode("mid")), 1.5, 1e-6);
}

TEST(NetlistIo, ParsesMosfetAmplifier) {
  const std::string text = R"(
Vdd vdd 0 1.1
Vin in 0 0.55 ac 1
M1 out in 0 0 nmos w=4u l=180n
Rload vdd out 20k
.end
)";
  const auto parsed = parseNetlist(text, bsim45Card(), kTt);
  ASSERT_TRUE(parsed.netlist.has_value()) << parsed.error.message;
  const DcResult op = DcSolver(*parsed.netlist).solve();
  ASSERT_TRUE(op.converged);
  const AcSolver ac(*parsed.netlist, op);
  const auto x = ac.solveAt(100.0);
  EXPECT_GT(std::abs(ac.nodeVoltage(x, parsed.netlist->findNode("out"))), 2.0);
}

TEST(NetlistIo, ReportsErrorsWithLineNumbers) {
  const auto parsed = parseNetlist("R1 a b\n", bsim45Card(), kTt);
  EXPECT_FALSE(parsed.netlist.has_value());
  EXPECT_EQ(parsed.error.line, 1u);
  const auto bad = parseNetlist("V1 a 0 1\nXfoo 1 2 3\n", bsim45Card(), kTt);
  EXPECT_FALSE(bad.netlist.has_value());
  EXPECT_EQ(bad.error.line, 2u);
  const auto nan = parseNetlist("V1 a 0 1\nR1 a 0 1k\nC1 a 0 nan\n",
                                bsim45Card(), kTt);
  EXPECT_FALSE(nan.netlist.has_value());
  EXPECT_EQ(nan.error.line, 3u);
}

TEST(NetlistIo, TempDirectiveSetsTemperature) {
  const auto parsed =
      parseNetlist(".temp 125\nR1 a 0 1k\n.end\n", bsim45Card(), kTt);
  ASSERT_TRUE(parsed.netlist.has_value());
  EXPECT_NEAR(parsed.netlist->tempK, 398.15, 1e-9);
}

TEST(NetlistIo, WriterRoundTrips) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.addVSource(a, kGround, 1.0, 0.5);
  nl.addResistor(a, kGround, 2e3);
  nl.addCapacitor(a, kGround, 1e-12);
  nl.addDiode(a, kGround, 2e-14);
  const std::string text = writeNetlist(nl);
  const auto parsed = parseNetlist(text, bsim45Card(), kTt);
  ASSERT_TRUE(parsed.netlist.has_value()) << parsed.error.message;
  EXPECT_EQ(parsed.netlist->resistors().size(), 1u);
  EXPECT_EQ(parsed.netlist->capacitors().size(), 1u);
  EXPECT_EQ(parsed.netlist->diodes().size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.netlist->vsources()[0].vac, 0.5);
}

// ---------- Diode ----------

TEST(DiodeModel, ExponentialAndSmooth) {
  Diode d;
  d.isat = 1e-14;
  const DiodeOp off = evalDiode(d, -0.5, 300.15);
  EXPECT_NEAR(off.id, -d.isat, 1e-15);
  const DiodeOp on = evalDiode(d, 0.7, 300.15);
  EXPECT_GT(on.id, 1e-7);
  // Derivative consistency at several points, including past the knee.
  for (double v : {-0.3, 0.2, 0.6, 1.6, 2.5}) {
    const double eps = 1e-7;
    const double numeric =
        (evalDiode(d, v + eps, 300.15).id - evalDiode(d, v - eps, 300.15).id) /
        (2 * eps);
    EXPECT_NEAR(evalDiode(d, v, 300.15).gd, numeric,
                std::abs(numeric) * 1e-4 + 1e-12)
        << "v=" << v;
  }
}

TEST(DiodeModel, RectifierDcOperatingPoint) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(in, kGround, 1.0);
  nl.addDiode(in, out);
  nl.addResistor(out, kGround, 1e3);
  const DcResult r = DcSolver(nl).solve();
  ASSERT_TRUE(r.converged);
  // Forward drop around 0.5-0.8 V at these currents.
  const double vd = r.nodeVoltage(in) - r.nodeVoltage(out);
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.9);
  EXPECT_GT(r.nodeVoltage(out), 0.1);
}

// ---------- VCCS ----------

TEST(Vccs, DcTransconductance) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(in, kGround, 0.2);
  nl.addVccs(out, kGround, in, kGround, 1e-3);  // i = gm*v(in), out of `out`
  nl.addResistor(out, kGround, 5e3);
  const DcResult r = DcSolver(nl).solve();
  ASSERT_TRUE(r.converged);
  // i = 0.2 * 1e-3 = 0.2 mA out of the node -> v = -i*R = -1.0 V.
  EXPECT_NEAR(r.nodeVoltage(out), -1.0, 1e-6);
}

// ---------- Inductor ----------

TEST(Inductor, DcShort) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.addVSource(a, kGround, 1.0);
  nl.addInductor(a, b, 1e-6);
  nl.addResistor(b, kGround, 1e3);
  const DcResult r = DcSolver(nl).solve();
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.nodeVoltage(b), 1.0, 1e-6);
  // Branch current: vsource then inductor in the branch vector.
  EXPECT_NEAR(r.branchCurrents[1], 1e-3, 1e-8);
}

TEST(Inductor, RlLowPassPole) {
  // L/R low-pass from the series inductor: f3dB = R/(2 pi L).
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(in, kGround, 0.0, 1.0);
  nl.addInductor(in, out, 1e-3);
  nl.addResistor(out, kGround, 1e3);
  const DcResult op = DcSolver(nl).solve();
  ASSERT_TRUE(op.converged);
  const AcSolver ac(nl, op);
  const double f3 = 1e3 / (2.0 * std::numbers::pi * 1e-3);
  const auto x = ac.solveAt(f3);
  EXPECT_NEAR(std::abs(ac.nodeVoltage(x, out)), 1.0 / std::sqrt(2.0), 1e-3);
}

TEST(Inductor, LcResonance) {
  // Series RLC driven at resonance: inductor and capacitor cancel.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId mid = nl.node("mid");
  const NodeId out = nl.node("out");
  nl.addVSource(in, kGround, 0.0, 1.0);
  nl.addResistor(in, mid, 50.0);
  nl.addInductor(mid, out, 1e-6);
  nl.addCapacitor(out, kGround, 1e-9);
  const DcResult op = DcSolver(nl).solve();
  ASSERT_TRUE(op.converged);
  const AcSolver ac(nl, op);
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-6 * 1e-9));
  const auto x = ac.solveAt(f0);
  // At resonance the full source voltage appears across C (Q > 1 peaking
  // aside, |v(out)| = |i|*Xc = (1/R)*Xc = Q).
  const double q = std::sqrt(1e-6 / 1e-9) / 50.0;
  EXPECT_NEAR(std::abs(ac.nodeVoltage(x, out)), q, q * 0.02);
}

TEST(Inductor, TransientRlStepResponse) {
  // i(t) = (V/R)(1 - e^{-tR/L}); tau = L/R = 1 us.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId mid = nl.node("mid");
  nl.addVSource(in, kGround, 1.0);
  nl.addInductor(in, mid, 1e-3);
  nl.addResistor(mid, kGround, 1e3);
  TransientOptions opts;
  opts.tStop = 3e-6;
  opts.dt = 5e-9;
  opts.includeDeviceCaps = false;
  linalg::Vector ic(nl.nodeCount(), 0.0);
  ic[static_cast<std::size_t>(in)] = 1.0;
  const TransientResult r = TransientSolver(nl, opts).run(ic);
  ASSERT_TRUE(r.completed);
  // Current through the vsource at t = tau is -(V/R)(1 - 1/e).
  std::size_t idxTau = 0;
  while (idxTau < r.times.size() && r.times[idxTau] < 1e-6) ++idxTau;
  EXPECT_NEAR(std::abs(r.branchCurrent(idxTau, 0)),
              1e-3 * (1.0 - std::exp(-1.0)), 5e-6);
}

// ---------- Noise ----------

TEST(Noise, ResistorDividerMatchesAnalytic) {
  // Output noise of R1 || R2 divider: 4kT * (R1 || R2), flat in frequency.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(in, kGround, 1.0);
  nl.addResistor(in, out, 10e3);
  nl.addResistor(out, kGround, 10e3);
  const DcResult op = DcSolver(nl).solve();
  ASSERT_TRUE(op.converged);
  const NoiseAnalyzer noise(nl, op);
  const auto r = noise.outputNoise({100.0, 1e4, 1e6}, out);
  const double kT = 1.380649e-23 * nl.tempK;
  const double expected = 4.0 * kT * 5e3;  // R1 || R2
  for (double psd : r.outputPsd) EXPECT_NEAR(psd, expected, expected * 1e-3);
}

TEST(Noise, CapacitorRollsOffResistorNoise) {
  Netlist nl;
  const NodeId out = nl.node("out");
  nl.addResistor(out, kGround, 10e3);
  nl.addCapacitor(out, kGround, 1e-9);
  const DcResult op = DcSolver(nl).solve();
  ASSERT_TRUE(op.converged);
  const NoiseAnalyzer noise(nl, op);
  const double fPole = 1.0 / (2.0 * std::numbers::pi * 10e3 * 1e-9);
  const auto r = noise.outputNoise({fPole / 100.0, fPole * 100.0}, out);
  EXPECT_GT(r.outputPsd[0], r.outputPsd[1] * 100.0);
}

TEST(Noise, MosfetAmplifierInputReferred) {
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
  NoiseOptions nopt;
  nopt.includeFlicker = false;
  const NoiseAnalyzer noise(nl, op, nopt);
  const auto freqs = AcSolver::logSpace(1e3, 1e6, 5);
  const auto outN = noise.outputNoise(freqs, out);
  const auto inN = noise.inputReferredNoise(freqs, out);
  // Gain > 1 -> input-referred below output noise; both positive.
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_GT(outN.outputPsd[i], 0.0);
    EXPECT_LT(inN.outputPsd[i], outN.outputPsd[i]);
  }
  // Thermal channel noise referred to the gate ~ 4kT gamma / gm: right order.
  const double kT = 1.380649e-23 * nl.tempK;
  const double expected = 4.0 * kT / op.mosOps[0].gm;
  EXPECT_GT(inN.outputPsd[0], expected * 0.5);
  EXPECT_LT(inN.outputPsd[0], expected * 5.0);
}

TEST(Noise, FlickerRaisesLowFrequencies) {
  const auto& card = bsim45Card();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.addVSource(vdd, kGround, 1.1);
  nl.addVSource(in, kGround, 0.55);
  nl.addMosfet("M1", out, in, kGround, kGround, MosType::kNmos,
               {4e-6, 180e-9, 1.0}, card.nmos);
  nl.addResistor(vdd, out, 20e3);
  const DcResult op = DcSolver(nl).solve();
  ASSERT_TRUE(op.converged);
  NoiseOptions with;
  with.includeFlicker = true;
  NoiseOptions without;
  without.includeFlicker = false;
  const auto nWith = NoiseAnalyzer(nl, op, with).outputNoise({10.0}, out);
  const auto nWithout = NoiseAnalyzer(nl, op, without).outputNoise({10.0}, out);
  EXPECT_GT(nWith.outputPsd[0], nWithout.outputPsd[0]);
}

}  // namespace
}  // namespace trdse::sim
