// Differential + property harness locking the lane engines' contract
// (sim/op_batch.hpp): every DC and transient lane equals the scalar reference
// loops in sim_reference.hpp, every AC lane equals AcSolver, and a lane's
// bits do not depend on what shares its pass — down to the EvalEngine, whose
// lane-batched dispatch must match a width-1 backend's one-slot passes.
//
// Every numeric comparison here is on the *bit pattern* of the doubles, not
// an epsilon: the contract is that lane l reproduces the reference exactly
// (see the op_batch.hpp header for how the kernels and compile flags
// guarantee it). An epsilon test would quietly accept the
// contraction/vectorization drift these tests exist to catch.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include <atomic>
#include <memory>

#include "circuits/registry.hpp"
#include "eval/eval_engine.hpp"
#include "pvt/corners.hpp"
#include "sim/ac.hpp"
#include "sim/assembly_plan.hpp"
#include "sim/dc.hpp"
#include "sim/diode.hpp"
#include "sim/mosfet.hpp"
#include "sim/op_batch.hpp"
#include "sim/process.hpp"
#include "sim/transient.hpp"
#include "sim_reference.hpp"

namespace trdse::sim {
namespace {

/// Bit-pattern equality: distinguishes -0.0 from 0.0 and catches 1-ulp
/// drift, which is exactly the failure mode of a divergent FP contraction.
testing::AssertionResult bitsEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0)
    return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << std::scientific << a << " vs " << b << " (bit patterns differ)";
}

#define EXPECT_BITS_EQ(a, b) EXPECT_TRUE(bitsEqual((a), (b)))
#define ASSERT_BITS_EQ(a, b) ASSERT_TRUE(bitsEqual((a), (b)))

/// Kitchen-sink netlist exercising every device type the MNA stamps know:
/// vsource (w/ AC), resistor, diode, NMOS, PMOS, capacitor, inductor, VCCS,
/// VCVS, isource (w/ AC). Lanes differ in corner *and* sizing.
Netlist buildSink(const PvtCorner& c, double wScale) {
  const ProcessCard& card = bsim45Card();
  const MosParams nmos = applyPvt(card.nmos, MosType::kNmos, c, card.tnomK);
  const MosParams pmos = applyPvt(card.pmos, MosType::kPmos, c, card.tnomK);
  Netlist nl;
  nl.tempK = c.tempK();
  const NodeId vdd = nl.node("vdd");
  const NodeId n1 = nl.node("n1");
  const NodeId n2 = nl.node("n2");
  const NodeId n3 = nl.node("n3");
  const NodeId n4 = nl.node("n4");
  const NodeId n5 = nl.node("n5");
  nl.addVSource(vdd, kGround, c.vdd, 1.0);
  nl.addResistor(vdd, n1, 10e3);
  nl.addDiode(n1, kGround);
  nl.addResistor(vdd, n2, 5e3);
  const MosGeometry gn{1e-6 * wScale, card.minL, 1.0};
  const MosGeometry gp{2e-6 * wScale, card.minL, 1.0};
  nl.addMosfet("M1", n2, n1, kGround, kGround, MosType::kNmos, gn, nmos);
  nl.addMosfet("M2", n3, n2, vdd, vdd, MosType::kPmos, gp, pmos);
  nl.addResistor(n3, kGround, 20e3);
  nl.addCapacitor(n2, kGround, 1e-12);
  nl.addCapacitor(n3, n2, 0.1e-12);
  nl.addInductor(n4, n3, 1e-9);
  nl.addResistor(n4, kGround, 1e3);
  nl.addVccs(n3, kGround, n1, kGround, 1e-4);
  nl.addVcvs(n5, kGround, n2, kGround, 2.0);
  nl.addResistor(n5, kGround, 10e3);
  nl.addISource(vdd, n1, 10e-6, 1e-6);
  return nl;
}

const std::array<PvtCorner, kSimLanes> kCorners = {{
    {ProcessCorner::kTT, 1.1, 27.0},
    {ProcessCorner::kFF, 1.21, -40.0},
    {ProcessCorner::kSS, 0.99, 125.0},
    {ProcessCorner::kSF, 1.1, 85.0},
}};
const std::array<double, kSimLanes> kWScales = {1.0, 1.7, 0.6, 2.3};

struct SinkLanes {
  std::array<Netlist, kSimLanes> nls;
  std::array<linalg::Vector, kSimLanes> guesses;
  std::array<const Netlist*, kSimLanes> nlp{};
  std::array<const linalg::Vector*, kSimLanes> gp{};
  SinkLanes() {
    for (int l = 0; l < static_cast<int>(kSimLanes); ++l) {
      const auto li = static_cast<std::size_t>(l);
      nls[li] = buildSink(kCorners[li], kWScales[li]);
      guesses[li].assign(nls[li].nodeCount(), 0.0);
      nlp[li] = &nls[li];
      gp[li] = &guesses[li];
    }
  }
};

// ---- DC ------------------------------------------------------------------

void expectSameDc(const DcResult& ref, const DcResult& b, std::size_t lane) {
  ASSERT_EQ(ref.converged, b.converged) << "lane " << lane;
  EXPECT_EQ(ref.iterations, b.iterations) << "lane " << lane;
  ASSERT_EQ(ref.v.size(), b.v.size());
  for (std::size_t i = 0; i < ref.v.size(); ++i)
    ASSERT_BITS_EQ(ref.v[i], b.v[i]);
  ASSERT_EQ(ref.branchCurrents.size(), b.branchCurrents.size());
  for (std::size_t i = 0; i < ref.branchCurrents.size(); ++i)
    ASSERT_BITS_EQ(ref.branchCurrents[i], b.branchCurrents[i]);
  ASSERT_EQ(ref.mosOps.size(), b.mosOps.size());
  for (std::size_t i = 0; i < ref.mosOps.size(); ++i) {
    EXPECT_BITS_EQ(ref.mosOps[i].ids, b.mosOps[i].ids);
    EXPECT_BITS_EQ(ref.mosOps[i].gm, b.mosOps[i].gm);
    EXPECT_BITS_EQ(ref.mosOps[i].gds, b.mosOps[i].gds);
  }
  ASSERT_EQ(ref.diodeConductances.size(), b.diodeConductances.size());
  for (std::size_t i = 0; i < ref.diodeConductances.size(); ++i)
    EXPECT_BITS_EQ(ref.diodeConductances[i], b.diodeConductances[i]);
}

TEST(SimBatchDc, EveryLaneBitwiseMatchesReference) {
  // Lanes of a full batch and the one-lane DcSolver entry point alike.
  const SinkLanes lanes;
  const auto batch = solveDcBatch(lanes.nlp, lanes.gp);
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const DcResult ref = reference::solveDc(lanes.nls[l], lanes.gp[l]);
    expectSameDc(ref, batch[l], l);
    expectSameDc(ref, DcSolver(lanes.nls[l]).solve(lanes.gp[l]), l);
  }
}

TEST(SimBatchDc, EveryLadderRungBitwiseMatchesReference) {
  // The kitchen sink converges on plain Newton at the default budget.
  // Starving each Newton loop of iterations pushes lanes down the ladder:
  // at 10 iterations the four lanes converge on source stepping, gmin
  // stepping, and plain Newton, and at 7 one lane fails every rung — lanes
  // at different rungs share each lockstep pass.
  const SinkLanes lanes;
  std::set<reference::DcRung> convergedOn;
  bool sawFailure = false;
  for (const int maxIterations : {7, 10}) {
    DcOptions opts;
    opts.maxIterations = maxIterations;
    const auto batch = solveDcBatch(lanes.nlp, lanes.gp, opts);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      reference::DcRung rung;
      const DcResult ref =
          reference::solveDc(lanes.nls[l], lanes.gp[l], opts, &rung);
      expectSameDc(ref, batch[l], l);
      if (ref.converged) {
        convergedOn.insert(rung);
      } else {
        sawFailure = true;
      }
    }
  }
  EXPECT_EQ(convergedOn.size(), 3u) << "a ladder rung went unexercised";
  EXPECT_TRUE(sawFailure) << "no lane failed every rung";
}

TEST(SimBatchDc, NullLanesAreSkippedAndSurvivorsUnchanged) {
  const SinkLanes lanes;
  const auto full = solveDcBatch(lanes.nlp, lanes.gp);
  // Every strict subset of active lanes must reproduce the full batch's
  // lanes bitwise: lane blocking may not couple lanes numerically.
  for (std::size_t keep = 1; keep < (1u << kSimLanes) - 1; ++keep) {
    std::array<const Netlist*, kSimLanes> nlp{};
    std::array<const linalg::Vector*, kSimLanes> gp{};
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      nlp[l] = lanes.nlp[l];
      gp[l] = lanes.gp[l];
    }
    const auto part = solveDcBatch(nlp, gp);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      ASSERT_EQ(part[l].converged, full[l].converged);
      for (std::size_t i = 0; i < full[l].v.size(); ++i)
        ASSERT_BITS_EQ(part[l].v[i], full[l].v[i]);
    }
  }
}

// ---- Transient -----------------------------------------------------------

void expectSameTrace(const TransientResult& ref, const TransientResult& b,
                     std::size_t lane) {
  ASSERT_EQ(ref.completed, b.completed) << "lane " << lane;
  ASSERT_EQ(ref.times.size(), b.times.size()) << "lane " << lane;
  for (std::size_t t = 0; t < ref.times.size(); ++t) {
    ASSERT_BITS_EQ(ref.times[t], b.times[t]);
    ASSERT_EQ(ref.voltages[t].size(), b.voltages[t].size());
    for (std::size_t i = 0; i < ref.voltages[t].size(); ++i)
      ASSERT_BITS_EQ(ref.voltages[t][i], b.voltages[t][i]);
    ASSERT_EQ(ref.branchCurrents[t].size(), b.branchCurrents[t].size());
    for (std::size_t i = 0; i < ref.branchCurrents[t].size(); ++i)
      ASSERT_BITS_EQ(ref.branchCurrents[t][i], b.branchCurrents[t][i]);
  }
}

TEST(SimBatchTransient, TracesBitwiseMatchReference) {
  // Lanes of a full batch and the one-lane TransientSolver entry point alike.
  const SinkLanes lanes;
  std::array<DcResult, kSimLanes> ops;
  for (std::size_t l = 0; l < kSimLanes; ++l)
    ops[l] = reference::solveDc(lanes.nls[l], lanes.gp[l]);

  TransientOptions topt;
  topt.tStop = 2e-10;
  topt.dt = 1e-12;
  std::array<const linalg::Vector*, kSimLanes> init{};
  for (std::size_t l = 0; l < kSimLanes; ++l) init[l] = &ops[l].v;

  TransientBatch batch(lanes.nlp, topt, init);
  batch.run();
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const TransientResult ref =
        reference::runTransient(lanes.nls[l], topt, ops[l].v);
    expectSameTrace(ref, batch.result(static_cast<int>(l)), l);
    expectSameTrace(ref, TransientSolver(lanes.nls[l], topt).run(ops[l].v), l);
  }
}

TEST(SimBatchTransient, MidRunNewtonFailureMatchesReference) {
  // Started from all-zero voltages with three Newton iterations per step,
  // two lanes exhaust their budget a few steps into the run while the other
  // two complete: the failed lanes must stop recording exactly where the
  // reference stops, and the survivors must not notice.
  const SinkLanes lanes;
  TransientOptions topt;
  topt.tStop = 2e-10;
  topt.dt = 1e-12;
  topt.maxNewtonIterations = 3;
  std::array<linalg::Vector, kSimLanes> zeros;
  std::array<const linalg::Vector*, kSimLanes> init{};
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    zeros[l].assign(lanes.nls[l].nodeCount(), 0.0);
    init[l] = &zeros[l];
  }

  TransientBatch batch(lanes.nlp, topt, init);
  batch.run();
  bool sawMidRunFailure = false;
  bool sawCompletion = false;
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const TransientResult ref =
        reference::runTransient(lanes.nls[l], topt, zeros[l]);
    expectSameTrace(ref, batch.result(static_cast<int>(l)), l);
    sawMidRunFailure =
        sawMidRunFailure || (!ref.completed && ref.times.size() > 2);
    sawCompletion = sawCompletion || ref.completed;
  }
  EXPECT_TRUE(sawMidRunFailure) << "no lane failed mid-run";
  EXPECT_TRUE(sawCompletion) << "no lane completed";
}

TEST(SimBatchTransient, SlicedSteppingEqualsSingleRun) {
  const SinkLanes lanes;
  std::array<DcResult, kSimLanes> ops;
  std::array<const linalg::Vector*, kSimLanes> init{};
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    ops[l] = reference::solveDc(lanes.nls[l], lanes.gp[l]);
    init[l] = &ops[l].v;
  }
  TransientOptions topt;
  topt.tStop = 2e-10;
  topt.dt = 1e-12;

  TransientBatch whole(lanes.nlp, topt, init);
  whole.run();

  // step(k); step(n-k) must land on the identical trajectory for any cut —
  // the scheduler may suspend/resume a batch anywhere.
  std::mt19937_64 rng(20210605);  // seeded: failures must reproduce
  for (int trial = 0; trial < 3; ++trial) {
    TransientBatch sliced(lanes.nlp, topt, init);
    std::size_t remaining = sliced.totalSteps();
    while (remaining > 0) {
      std::uniform_int_distribution<std::size_t> cut(1, remaining);
      const std::size_t k = cut(rng);
      sliced.step(k);
      remaining -= k;
    }
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      const TransientResult& a = whole.result(static_cast<int>(l));
      const TransientResult& b = sliced.result(static_cast<int>(l));
      ASSERT_EQ(a.times.size(), b.times.size());
      for (std::size_t t = 0; t < a.times.size(); ++t)
        for (std::size_t i = 0; i < a.voltages[t].size(); ++i)
          ASSERT_BITS_EQ(a.voltages[t][i], b.voltages[t][i]);
    }
  }
}

// ---- AC ------------------------------------------------------------------

TEST(SimBatchAc, SweepBitwiseMatchesScalarSolver) {
  const SinkLanes lanes;
  std::array<DcResult, kSimLanes> dcs;
  std::array<const DcResult*, kSimLanes> ops{};
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    dcs[l] = reference::solveDc(lanes.nls[l], lanes.gp[l]);
    ops[l] = &dcs[l];
  }
  AcBatch ac(lanes.nlp, ops);
  const auto freqs = AcSolver::logSpace(10.0, 20e9, 60);
  for (const double f : freqs) {
    ac.solveAt(f);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      ASSERT_TRUE(ac.laneFinite(static_cast<int>(l)));
      const AcSolver scalar(lanes.nls[l], dcs[l]);
      const linalg::ComplexVector xs = scalar.solveAt(f);
      for (std::size_t node = 1; node < lanes.nls[l].nodeCount(); ++node) {
        const auto sv = scalar.nodeVoltage(xs, static_cast<NodeId>(node));
        const auto bv =
            ac.nodeVoltage(static_cast<int>(l), static_cast<NodeId>(node));
        ASSERT_BITS_EQ(sv.real(), bv.real());
        ASSERT_BITS_EQ(sv.imag(), bv.imag());
      }
    }
  }
}

// ---- Device-model property tests ----------------------------------------

/// Seeded geometry/bias sampler shared by the MOSFET property tests.
struct MosSample {
  MosGeometry geom;
  double vd, vs, vb, tempK;
};

std::vector<MosSample> mosSamples(std::mt19937_64& rng, int n) {
  std::uniform_real_distribution<double> w(0.4e-6, 40e-6);
  std::uniform_real_distribution<double> len(45e-9, 500e-9);
  std::uniform_real_distribution<double> vds(0.05, 1.2);
  std::uniform_real_distribution<double> vbs(-0.3, 0.0);
  std::uniform_real_distribution<double> temp(233.15, 398.15);
  std::vector<MosSample> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.push_back({{w(rng), len(rng), 1.0}, vds(rng), 0.0, vbs(rng), temp(rng)});
  return out;
}

TEST(MosfetProperty, IdsIsContinuousAcrossRegionTransitions) {
  // The EKV-style interpolation has no hard region boundary, but the
  // implementation blends several expressions; walk Vgs through the whole
  // sub-/near-/super-threshold range with a fine step and require the
  // response to be locally Lipschitz against its own reported gm. A hidden
  // branch with mismatched expressions would show up as a jump.
  std::mt19937_64 rng(987654321);
  const ProcessCard& card = bsim45Card();
  for (const MosSample& s : mosSamples(rng, 8)) {
    const MosDeviceCtx ctx =
        makeMosCtx(card.nmos, MosType::kNmos, s.geom, s.tempK);
    const double dv = 1e-4;
    MosOp prev = evalMosCtx(ctx, s.vd, 0.0, s.vs, s.vb);
    for (double vg = dv; vg <= 1.3; vg += dv) {
      const MosOp cur = evalMosCtx(ctx, s.vd, vg, s.vs, s.vb);
      const double slopeBound =
          3.0 * std::max(std::abs(prev.dIdVg), std::abs(cur.dIdVg)) * dv +
          1e-18;
      EXPECT_LE(std::abs(cur.ids - prev.ids), slopeBound)
          << "jump at vg=" << vg << " w=" << s.geom.w << " l=" << s.geom.l;
      prev = cur;
    }
  }
}

TEST(MosfetProperty, IdsIsMonotoneInVgs) {
  // Physical sanity on the seeded grid: more gate drive, more current (NMOS,
  // fixed positive Vds). The batched kernel must agree bitwise, so checking
  // the scalar kernel covers both.
  std::mt19937_64 rng(123456789);
  const ProcessCard& card = bsim45Card();
  for (const MosSample& s : mosSamples(rng, 8)) {
    const MosDeviceCtx ctx =
        makeMosCtx(card.nmos, MosType::kNmos, s.geom, s.tempK);
    double prevIds = evalMosCtx(ctx, s.vd, 0.0, s.vs, s.vb).ids;
    for (double vg = 0.01; vg <= 1.3; vg += 0.01) {
      const double ids = evalMosCtx(ctx, s.vd, vg, s.vs, s.vb).ids;
      EXPECT_GE(ids, prevIds) << "vg=" << vg << " w=" << s.geom.w;
      prevIds = ids;
    }
  }
}

TEST(MosfetProperty, BlockKernelBitwiseMatchesScalarKernel) {
  // Random (geometry, bias, corner) lanes: evalMosBlock lane l must equal
  // evalMosCtx on lane l's inputs bit for bit — the foundation every
  // higher-level equivalence in this file rests on.
  std::mt19937_64 rng(555555);
  const ProcessCard& card = bsim45Card();
  std::uniform_real_distribution<double> v(-0.2, 1.3);
  for (int trial = 0; trial < 64; ++trial) {
    MosCtxBlock blk;
    std::array<MosDeviceCtx, kSimLanes> ctxs;
    double vd[kSimLanes], vg[kSimLanes], vs[kSimLanes], vb[kSimLanes];
    auto samples = mosSamples(rng, static_cast<int>(kSimLanes));
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      const MosType type = (trial % 2) ? MosType::kPmos : MosType::kNmos;
      const MosParams& p = (trial % 2) ? card.pmos : card.nmos;
      ctxs[l] = makeMosCtx(p, type, samples[l].geom, samples[l].tempK);
      blk.sign[l] = ctxs[l].sign;
      blk.vt[l] = ctxs[l].vt;
      blk.n[l] = ctxs[l].n;
      blk.ispec[l] = ctxs[l].ispec;
      blk.sq0[l] = ctxs[l].sq0;
      blk.lambda[l] = ctxs[l].lambda;
      blk.vth0[l] = ctxs[l].vth0;
      blk.gamma[l] = ctxs[l].gamma;
      blk.phi[l] = ctxs[l].phi;
      blk.invN[l] = ctxs[l].invN;
      blk.invVtN[l] = ctxs[l].invVtN;
      blk.negInvVt[l] = ctxs[l].negInvVt;
      vd[l] = v(rng);
      vg[l] = v(rng);
      vs[l] = v(rng);
      vb[l] = v(rng);
    }
    MosOpBlock out;
    evalMosBlock(blk, vd, vg, vs, vb, out);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      const MosOp ref = evalMosCtx(ctxs[l], vd[l], vg[l], vs[l], vb[l]);
      ASSERT_BITS_EQ(ref.ids, out.ids[l]);
      ASSERT_BITS_EQ(ref.dIdVd, out.dIdVd[l]);
      ASSERT_BITS_EQ(ref.dIdVg, out.dIdVg[l]);
      ASSERT_BITS_EQ(ref.dIdVs, out.dIdVs[l]);
      ASSERT_BITS_EQ(ref.dIdVb, out.dIdVb[l]);
      ASSERT_BITS_EQ(ref.gm, out.gm[l]);
      ASSERT_BITS_EQ(ref.gds, out.gds[l]);
    }
  }
}

TEST(DiodeProperty, ConductanceIsStrictlyPositive) {
  // gd = dI/dV of the exponential law is positive everywhere — including
  // deep reverse bias, where a careless linearization could return 0 and
  // de-rank the Newton Jacobian.
  std::mt19937_64 rng(24681012);
  std::uniform_real_distribution<double> isat(1e-16, 1e-12);
  std::uniform_real_distribution<double> emission(1.0, 2.0);
  std::uniform_real_distribution<double> temp(233.15, 398.15);
  for (int trial = 0; trial < 32; ++trial) {
    Diode d;
    d.isat = isat(rng);
    d.emission = emission(rng);
    const double tempK = temp(rng);
    for (double vak = -1.0; vak <= 0.9; vak += 0.01) {
      const DiodeOp op = evalDiode(d, vak, tempK);
      EXPECT_GT(op.gd, 0.0) << "vak=" << vak << " isat=" << d.isat;
      EXPECT_TRUE(std::isfinite(op.id));
    }
  }
}

}  // namespace
}  // namespace trdse::sim

// ---- EvalEngine-level equivalence ----------------------------------------

namespace trdse::eval {
namespace {

testing::AssertionResult sameBits(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0)
    return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << std::scientific << a << " vs " << b << " (bit patterns differ)";
}

/// A few deterministic on-grid sizings spread across the space.
std::vector<linalg::Vector> probeSizings(const core::DesignSpace& space,
                                         int n) {
  std::vector<linalg::Vector> out;
  for (int s = 0; s < n; ++s) {
    linalg::Vector v(space.dim());
    for (std::size_t d = 0; d < space.dim(); ++d) {
      const auto& ax = space.param(d);
      v[d] = space.gridValue(
          d, (static_cast<std::size_t>(s) * 7 + d * 3) % ax.steps);
    }
    out.push_back(std::move(v));
  }
  return out;
}

/// The problem without its fused corner-batch evaluator: its engine's
/// CallbackBackend is 1 lane wide, so every miss runs `evaluate`, a one-slot
/// pass of the circuit's lane pipeline. Comparing it with the fused dispatch
/// checks that a slot's bits do not depend on the chunk it shares.
core::SizingProblem oneSlotOnly(core::SizingProblem p) {
  p.evaluateBatch = {};
  return p;
}

TEST(EvalEngineBatch, RegistryCircuitsBitwiseIdenticalAcrossModesAndThreads) {
  // The acceptance bar of the batched backend: for every registry circuit,
  // every corner of the nine-corner sign-off set, and every thread count,
  // the engine over the lane-batched backend returns byte-identical
  // results, ledger, and stats (minus wall-clock) to the engine over the
  // width-1 backend of one-slot passes. Caching is off so every request
  // actually exercises the backend dispatch under test.
  const auto& reg = circuits::Registry::global();
  for (const auto& name : reg.names()) {
    const auto nominal = reg.makeProblem(name);
    ASSERT_TRUE(static_cast<bool>(nominal.evaluateBatch))
        << name << " does not publish a batch evaluator";
    const double vdd = nominal.corners.empty() ? 1.1 : nominal.corners[0].vdd;
    const auto problem = reg.makeProblem(name, pvt::nineCornerSet(vdd));
    std::vector<std::size_t> cornerIdx(problem.corners.size());
    for (std::size_t i = 0; i < cornerIdx.size(); ++i) cornerIdx[i] = i;
    const auto sizings = probeSizings(problem.space, 2);

    for (const std::size_t threads : {1u, 2u, 4u}) {
      const EvalEngineConfig cfg{/*cacheEvals=*/false, threads,
                                 /*recordLedger=*/true};
      EvalEngine oneSlotEngine(oneSlotOnly(problem), cfg);
      EvalEngine batchEngine(problem, cfg);
      for (const auto& v : sizings) {
        const auto ro = oneSlotEngine.evalBatch(cornerIdx, v,
                                                pvt::BlockKind::kSearch);
        const auto rb = batchEngine.evalBatch(cornerIdx, v,
                                              pvt::BlockKind::kSearch);
        ASSERT_EQ(ro.size(), rb.size());
        for (std::size_t c = 0; c < ro.size(); ++c) {
          ASSERT_EQ(ro[c].ok, rb[c].ok)
              << name << " corner " << c << " threads " << threads;
          ASSERT_EQ(ro[c].failure, rb[c].failure);
          ASSERT_EQ(ro[c].measurements.size(), rb[c].measurements.size());
          for (std::size_t m = 0; m < ro[c].measurements.size(); ++m)
            ASSERT_TRUE(sameBits(ro[c].measurements[m], rb[c].measurements[m]))
                << name << " corner " << c << " meas " << m << " threads "
                << threads;
        }
      }
      // Ledger: identical block sequence (EdaBlock carries no wall-clock).
      const auto& lo = oneSlotEngine.ledger().blocks();
      const auto& lb = batchEngine.ledger().blocks();
      ASSERT_EQ(lo.size(), lb.size()) << name;
      for (std::size_t i = 0; i < lo.size(); ++i) {
        EXPECT_EQ(lo[i].cornerIndex, lb[i].cornerIndex);
        EXPECT_EQ(lo[i].kind, lb[i].kind);
        EXPECT_EQ(lo[i].meetsSpec, lb[i].meetsSpec);
        EXPECT_EQ(lo[i].cached, lb[i].cached);
        EXPECT_EQ(lo[i].failed, lb[i].failed);
        EXPECT_EQ(lo[i].retries, lb[i].retries);
        EXPECT_EQ(lo[i].backoff, lb[i].backoff);
      }
      // Stats: identical except backendSeconds (wall time, not semantics).
      const EvalStats& so = oneSlotEngine.stats();
      const EvalStats& sb = batchEngine.stats();
      EXPECT_EQ(so.requests, sb.requests);
      EXPECT_EQ(so.simulated, sb.simulated);
      EXPECT_EQ(so.cacheHits, sb.cacheHits);
      EXPECT_EQ(so.sharedHits, sb.sharedHits);
      EXPECT_EQ(so.attempts, sb.attempts);
      EXPECT_EQ(so.faults, sb.faults);
      EXPECT_EQ(so.failures, sb.failures);
      EXPECT_EQ(so.backoffUnits, sb.backoffUnits);
    }
  }
}

TEST(EvalEngineBatch, OddBatchSizesAndRepeatsStayBitwiseIdentical) {
  // Request counts that do not divide the lane width (1, 3, 5, 9 requests)
  // force ragged tail chunks; duplicates force the cache-dedup path to
  // interact with chunking. All must be invisible in the results.
  const auto& reg = circuits::Registry::global();
  const auto problem =
      reg.makeProblem("two_stage_opamp", pvt::nineCornerSet(1.1));
  const auto sizings = probeSizings(problem.space, 1);
  for (const std::size_t n : {1u, 3u, 5u, 9u}) {
    std::vector<std::size_t> cornerIdx(n);
    for (std::size_t i = 0; i < n; ++i) cornerIdx[i] = i % 9;
    EvalEngine oneSlotEngine(oneSlotOnly(problem), EvalEngineConfig{true, 1});
    EvalEngine batchEngine(problem, EvalEngineConfig{true, 1});
    const auto ro =
        oneSlotEngine.evalBatch(cornerIdx, sizings[0], pvt::BlockKind::kSearch);
    const auto rb =
        batchEngine.evalBatch(cornerIdx, sizings[0], pvt::BlockKind::kSearch);
    ASSERT_EQ(ro.size(), rb.size());
    for (std::size_t c = 0; c < ro.size(); ++c) {
      ASSERT_EQ(ro[c].ok, rb[c].ok);
      for (std::size_t m = 0; m < ro[c].measurements.size(); ++m)
        ASSERT_TRUE(sameBits(ro[c].measurements[m], rb[c].measurements[m]));
    }
  }
}

TEST(EvalEngineBatch, ProblemBatchEvaluatorMatchesOneSlotEvaluatePerSlot) {
  // The raw SizingProblem::evaluateBatch contract, without the engine in
  // between: slot i == evaluate(sizes, corners[i]), the one-slot pass, bit
  // for bit, for a ragged count too.
  const auto& reg = circuits::Registry::global();
  for (const auto& name : reg.names()) {
    const auto nominal = reg.makeProblem(name);
    const double vdd = nominal.corners.empty() ? 1.1 : nominal.corners[0].vdd;
    const auto problem = reg.makeProblem(name, pvt::nineCornerSet(vdd));
    const auto sizings = probeSizings(problem.space, 1);
    const std::size_t count = problem.corners.size();  // 9: ragged tail of 1
    std::vector<core::EvalResult> batch(count);
    const std::vector<const linalg::Vector*> slotSizes(count, &sizings[0]);
    problem.evaluateBatch(slotSizes.data(), problem.corners.data(),
                          batch.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const core::EvalResult ref =
          problem.evaluate(sizings[0], problem.corners[i]);
      ASSERT_EQ(ref.ok, batch[i].ok) << name << " slot " << i;
      ASSERT_EQ(ref.measurements.size(), batch[i].measurements.size());
      for (std::size_t m = 0; m < ref.measurements.size(); ++m)
        ASSERT_TRUE(sameBits(ref.measurements[m], batch[i].measurements[m]))
            << name << " slot " << i << " meas " << m;
    }
  }
}

TEST(AssemblyPlanCache, RepeatSweepsRebuildNothingAndStayBitwise) {
  // The tentpole property: the per-topology AssemblyPlan is built once on
  // the first evaluation of a topology and every later sweep — same sizing
  // or a different one on the same schematic — reuses it verbatim. Reuse
  // must be invisible in the numbers: a warm-cache sweep reproduces the
  // cold-cache sweep bit for bit, and a cold rebuild is deterministic
  // (same build count, same bits).
  const auto& reg = circuits::Registry::global();
  for (const auto& name : reg.names()) {
    const auto nominal = reg.makeProblem(name);
    const double vdd = nominal.corners.empty() ? 1.1 : nominal.corners[0].vdd;
    const auto problem = reg.makeProblem(name, pvt::nineCornerSet(vdd));
    const auto sizings = probeSizings(problem.space, 2);
    const std::size_t count = problem.corners.size();
    const auto sweep = [&](const linalg::Vector& x) {
      std::vector<core::EvalResult> out(count);
      const std::vector<const linalg::Vector*> slots(count, &x);
      problem.evaluateBatch(slots.data(), problem.corners.data(), out.data(),
                            count);
      return out;
    };
    const auto expectSameBits = [&](const std::vector<core::EvalResult>& a,
                                    const std::vector<core::EvalResult>& b) {
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].ok, b[i].ok) << name << " slot " << i;
        ASSERT_EQ(a[i].measurements.size(), b[i].measurements.size());
        for (std::size_t m = 0; m < a[i].measurements.size(); ++m)
          ASSERT_TRUE(sameBits(a[i].measurements[m], b[i].measurements[m]))
              << name << " slot " << i << " meas " << m;
      }
    };

    sim::clearPlanCache();
    const std::uint64_t cold0 = sim::planBuildCount();
    const auto first = sweep(sizings[0]);
    const std::uint64_t coldBuilds = sim::planBuildCount() - cold0;
    EXPECT_GT(coldBuilds, 0u) << name << ": cold sweep built no plan";

    // Warm sweeps: same sizing, then a different sizing on the same
    // topology. Neither may build anything.
    const auto repeat = sweep(sizings[0]);
    const auto other = sweep(sizings[1]);
    (void)other;
    EXPECT_EQ(sim::planBuildCount() - cold0, coldBuilds)
        << name << ": warm sweep rebuilt a plan";
    expectSameBits(first, repeat);

    // Cold rebuild is deterministic: same build count, same bits.
    sim::clearPlanCache();
    const std::uint64_t cold1 = sim::planBuildCount();
    const auto rebuilt = sweep(sizings[0]);
    EXPECT_EQ(sim::planBuildCount() - cold1, coldBuilds) << name;
    expectSameBits(first, rebuilt);
  }
}

TEST(EvalEnginePacked, PackedSweepMatchesPerRequestBatches) {
  // Cross-request lane packing: evalPacked fuses all points' misses into
  // one dispatch (lanes may mix sizings mid-chunk), yet results, stats,
  // and the ledger must be exactly what the same engine produces for one
  // evalBatch per point. A duplicated point exercises the cross-point
  // duplicate rule against the sequential engine's plain cache hit.
  const auto& reg = circuits::Registry::global();
  const auto problem =
      reg.makeProblem("two_stage_opamp", pvt::nineCornerSet(1.1));
  auto points = probeSizings(problem.space, 3);
  points.push_back(points[0]);  // packed: cross-point dup; sequential: hits
  std::vector<std::size_t> cornerIdx(problem.corners.size());
  for (std::size_t i = 0; i < cornerIdx.size(); ++i) cornerIdx[i] = i;

  for (const std::size_t threads : {1u, 2u, 4u}) {
    const EvalEngineConfig cfg{/*cacheEvals=*/true, threads,
                               /*recordLedger=*/true};
    EvalEngine packed(problem, cfg);
    EvalEngine sequential(problem, cfg);

    const auto flat =
        packed.evalPacked(points, cornerIdx, pvt::BlockKind::kSearch);
    ASSERT_EQ(flat.size(), points.size() * cornerIdx.size());
    std::vector<core::EvalResult> ref;
    for (const auto& p : points) {
      const auto r = sequential.evalBatch(cornerIdx, p, pvt::BlockKind::kSearch);
      ref.insert(ref.end(), r.begin(), r.end());
    }

    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i].ok, flat[i].ok) << "slot " << i << " threads " << threads;
      ASSERT_EQ(ref[i].failure, flat[i].failure);
      ASSERT_EQ(ref[i].measurements.size(), flat[i].measurements.size());
      for (std::size_t m = 0; m < ref[i].measurements.size(); ++m)
        ASSERT_TRUE(sameBits(ref[i].measurements[m], flat[i].measurements[m]))
            << "slot " << i << " meas " << m << " threads " << threads;
    }

    const EvalStats& sp = packed.stats();
    const EvalStats& ss = sequential.stats();
    EXPECT_EQ(sp.requests, ss.requests);
    EXPECT_EQ(sp.simulated, ss.simulated);
    EXPECT_EQ(sp.cacheHits, ss.cacheHits);
    EXPECT_EQ(sp.sharedHits, ss.sharedHits);
    EXPECT_EQ(sp.attempts, ss.attempts);
    EXPECT_EQ(sp.faults, ss.faults);
    EXPECT_EQ(sp.failures, ss.failures);
    EXPECT_EQ(sp.backoffUnits, ss.backoffUnits);

    const auto& lp = packed.ledger().blocks();
    const auto& ls = sequential.ledger().blocks();
    ASSERT_EQ(lp.size(), ls.size());
    for (std::size_t i = 0; i < lp.size(); ++i) {
      EXPECT_EQ(lp[i].cornerIndex, ls[i].cornerIndex) << "block " << i;
      EXPECT_EQ(lp[i].kind, ls[i].kind);
      EXPECT_EQ(lp[i].meetsSpec, ls[i].meetsSpec);
      EXPECT_EQ(lp[i].cached, ls[i].cached);
      EXPECT_EQ(lp[i].failed, ls[i].failed);
    }
  }
}

/// Deterministic synthetic model whose result is a pure function of
/// (sizes[0], corner), so the fused and scalar callbacks are trivially
/// bitwise identical.
core::EvalResult chunkModel(const linalg::Vector& sizes,
                            const sim::PvtCorner& corner) {
  core::EvalResult r;
  r.ok = true;
  r.measurements = linalg::Vector(1);
  r.measurements[0] = sizes[0] + 1e3 * corner.vdd + corner.tempC;
  return r;
}

TEST(EvalEngineBatch, EveryChunkReachesTheFusedCallback) {
  // The engine cuts its misses into consecutive chunks of the backend's
  // width (4), and CallbackBackend runs every chunk — a ragged tail of one
  // included — through the fused callback. Verified against the recorded
  // dispatch shape for every remainder class, with results identical to an
  // engine over a width-1 backend.
  const auto problem = circuits::Registry::global().makeProblem(
      "two_stage_opamp", pvt::nineCornerSet(1.1));
  struct Case {
    std::size_t requests;
    std::vector<std::size_t> wantChunks;
  };
  const std::vector<Case> cases = {
      {1, {1}},        // lone request: a one-lane pass
      {4, {4}},        // exact chunk
      {5, {4, 1}},     // tail of 1
      {6, {4, 2}},     // tail of 2
      {9, {4, 4, 1}},  // two chunks + tail of 1
  };
  for (const Case& c : cases) {
    std::size_t scalarCalls = 0;
    std::vector<std::size_t> chunkSizes;
    const auto backend = std::make_shared<CallbackBackend>(
        [&](const linalg::Vector& sizes, const sim::PvtCorner& corner) {
          ++scalarCalls;
          return chunkModel(sizes, corner);
        },
        "chunk-recording",
        [&](const linalg::Vector* const* sizes, const sim::PvtCorner* corners,
            core::EvalResult* results, std::size_t count) {
          chunkSizes.push_back(count);
          for (std::size_t i = 0; i < count; ++i)
            results[i] = chunkModel(*sizes[i], corners[i]);
        });
    ASSERT_EQ(backend->batchWidth(), 4u);
    // threads=1 keeps chunk completion in submission order so the recorded
    // shape is deterministic; cache off so every request is a miss.
    EvalEngine engine(backend, problem.space, problem.corners, {},
                      EvalEngineConfig{false, 1});
    EvalEngine scalarEngine(std::make_shared<CallbackBackend>(chunkModel),
                            problem.space, problem.corners, {},
                            EvalEngineConfig{false, 1});
    std::vector<std::size_t> cornerIdx(c.requests);
    for (std::size_t i = 0; i < c.requests; ++i) cornerIdx[i] = i % 9;
    const auto sizing = probeSizings(problem.space, 1)[0];
    const auto got =
        engine.evalBatch(cornerIdx, sizing, pvt::BlockKind::kSearch);
    const auto want =
        scalarEngine.evalBatch(cornerIdx, sizing, pvt::BlockKind::kSearch);

    EXPECT_EQ(chunkSizes, c.wantChunks)
        << c.requests << " requests: unexpected batch chunking";
    EXPECT_EQ(scalarCalls, 0u)
        << c.requests << " requests: a chunk bypassed the fused callback";
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].ok, want[i].ok);
      for (std::size_t m = 0; m < got[i].measurements.size(); ++m)
        ASSERT_TRUE(sameBits(got[i].measurements[m], want[i].measurements[m]));
    }
  }
}

}  // namespace
}  // namespace trdse::eval
