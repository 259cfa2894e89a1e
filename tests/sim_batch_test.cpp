// Differential + property harness locking the lane engines' contract
// (sim/op_batch.hpp): every DC, transient and AC lane equals the scalar
// reference solves in sim_reference.hpp, and a lane's bits depend neither on
// its slot nor on what shares its pass — down to the EvalEngine, whose
// lane-batched dispatch must match a width-1 backend's one-slot passes.
//
// Every numeric comparison here is on the *bit pattern* of the doubles (a
// NaN's sign and payload aside, see sameValue), not an epsilon: the contract
// is that lane l reproduces the reference exactly (see the op_batch.hpp
// header for how the kernels and compile flags guarantee it). An epsilon
// test would quietly accept the contraction/vectorization drift these tests
// exist to catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <atomic>
#include <memory>

#include "circuits/registry.hpp"
#include "eval/eval_engine.hpp"
#include "eval_stats_eq.hpp"
#include "pvt/corners.hpp"
#include "sim/ac.hpp"
#include "sim/assembly_plan.hpp"
#include "sim/dc.hpp"
#include "sim/diode.hpp"
#include "sim/mosfet.hpp"
#include "sim/op_batch.hpp"
#include "sim/process.hpp"
#include "sim/transient.hpp"
#include "pool_task.hpp"
#include "sim_reference.hpp"

// Heap allocations made on this thread while armed: the transient stepping
// test asserts that a time step allocates nothing.
namespace {
thread_local bool tCountAllocations = false;
thread_local std::size_t tAllocations = 0;
}  // namespace

// The replacements pair malloc with free themselves; GCC cannot see that
// through the inlined new/delete pairs and warns at every call site.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (tCountAllocations) ++tAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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

/// bitsEqual, except that any NaN matches any NaN. IEEE 754 leaves the sign
/// and payload of a NaN that arithmetic produces unspecified, and GCC moves
/// a negation across a product (-a*b, a*-b, -(a*b): equal for every non-NaN
/// value) differently from one build flavour to another — under ASan+UBSan
/// the reference's NaN signs differ from the engine's, which match in the
/// Release builds. Which elements are NaN, and every other bit pattern,
/// infinities included, stay exact.
testing::AssertionResult sameValue(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return testing::AssertionSuccess();
  return bitsEqual(a, b);
}

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

/// Every non-empty subset of the four lanes under every permutation of the
/// four slots: body(keep, slot) runs lane l in slot[l] when bit l of `keep`
/// is set, leaving the other slots null.
template <typename Body>
void forEachSubsetAndSlotPermutation(Body&& body) {
  for (unsigned keep = 1; keep < (1u << kSimLanes); ++keep) {
    std::array<std::size_t, kSimLanes> slot = {0, 1, 2, 3};
    do {
      body(keep, slot);
    } while (std::next_permutation(slot.begin(), slot.end()));
  }
}

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
  // Every subset of the lanes, in every slot order, must reproduce the full
  // batch's lanes bitwise: lane blocking may not couple lanes numerically,
  // and a lane's slot may not matter.
  forEachSubsetAndSlotPermutation([&](unsigned keep, const auto& slot) {
    std::array<const Netlist*, kSimLanes> nlp{};
    std::array<const linalg::Vector*, kSimLanes> gp{};
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      nlp[slot[l]] = lanes.nlp[l];
      gp[slot[l]] = lanes.gp[l];
    }
    const auto part = solveDcBatch(nlp, gp);
    for (std::size_t l = 0; l < kSimLanes; ++l)
      if (keep & (1u << l)) expectSameDc(full[l], part[slot[l]], l);
  });
}

// ---- Transient -----------------------------------------------------------

/// `b`'s rows equal the first rows of `ref`, bit for bit: times, node
/// voltages and branch currents, in the flat row-major layout.
void expectTracePrefix(const TransientResult& ref, const TransientResult& b,
                       std::size_t lane) {
  ASSERT_EQ(ref.nodeCount, b.nodeCount) << "lane " << lane;
  ASSERT_EQ(ref.branchCount, b.branchCount) << "lane " << lane;
  for (const TransientResult* r : {&ref, &b}) {
    ASSERT_EQ(r->voltages.size(), r->times.size() * r->nodeCount);
    ASSERT_EQ(r->branchCurrents.size(), r->times.size() * r->branchCount);
  }
  ASSERT_LE(b.times.size(), ref.times.size()) << "lane " << lane;
  for (std::size_t t = 0; t < b.times.size(); ++t) {
    ASSERT_BITS_EQ(ref.times[t], b.times[t]) << "lane " << lane << " row " << t;
    for (std::size_t i = 0; i < b.nodeCount; ++i)
      ASSERT_BITS_EQ(ref.voltage(t, static_cast<NodeId>(i)),
                     b.voltage(t, static_cast<NodeId>(i)))
          << "lane " << lane << " row " << t << " node " << i;
    for (std::size_t k = 0; k < b.branchCount; ++k)
      ASSERT_BITS_EQ(ref.branchCurrent(t, k), b.branchCurrent(t, k))
          << "lane " << lane << " row " << t << " branch " << k;
  }
}

void expectSameTrace(const TransientResult& ref, const TransientResult& b,
                     std::size_t lane) {
  ASSERT_EQ(ref.completed, b.completed) << "lane " << lane;
  ASSERT_EQ(ref.times.size(), b.times.size()) << "lane " << lane;
  expectTracePrefix(ref, b, lane);
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

TEST(SimBatchTransient, EveryLaneSubsetAndSlotPermutationKeepsItsTrace) {
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
  TransientBatch full(lanes.nlp, topt, init);
  full.run();
  forEachSubsetAndSlotPermutation([&](unsigned keep, const auto& slot) {
    std::array<const Netlist*, kSimLanes> nlp{};
    std::array<const linalg::Vector*, kSimLanes> vp{};
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      nlp[slot[l]] = lanes.nlp[l];
      vp[slot[l]] = init[l];
    }
    TransientBatch part(nlp, topt, vp);
    part.run();
    for (std::size_t l = 0; l < kSimLanes; ++l)
      if (keep & (1u << l))
        expectSameTrace(full.result(static_cast<int>(l)),
                        part.result(static_cast<int>(slot[l])), l);
  });
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
  // the scheduler may suspend/resume a batch anywhere. Between slices each
  // lane's live trace, read in place, is a bitwise prefix of the single
  // run's, one row per step taken so far; at the end it is the whole trace.
  std::mt19937_64 rng(20210605);  // seeded: failures must reproduce
  for (int trial = 0; trial < 3; ++trial) {
    TransientBatch sliced(lanes.nlp, topt, init);
    std::size_t remaining = sliced.totalSteps();
    while (remaining > 0) {
      std::uniform_int_distribution<std::size_t> cut(1, remaining);
      const std::size_t k = cut(rng);
      sliced.step(k);
      remaining -= k;
      for (std::size_t l = 0; l < kSimLanes; ++l) {
        const TransientResult& a = whole.result(static_cast<int>(l));
        const TransientResult& b = sliced.result(static_cast<int>(l));
        expectTracePrefix(a, b, l);
        EXPECT_EQ(b.times.size(),
                  std::min(sliced.stepsDone() + 1, a.times.size()));
        if (remaining > 0) {
          EXPECT_FALSE(b.completed);
        }
      }
    }
    for (std::size_t l = 0; l < kSimLanes; ++l)
      expectSameTrace(whole.result(static_cast<int>(l)),
                      sliced.result(static_cast<int>(l)), l);
  }
}

TEST(SimBatchTransient, SteppingAllocatesNothing) {
  // Every per-step buffer, the trace rows included, is sized when the batch
  // is built; a full batch and a one-lane pass step without touching the
  // heap.
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
  const std::array<const Netlist*, kSimLanes> one = {nullptr, lanes.nlp[1],
                                                     nullptr, nullptr};
  for (const auto* nlp : {&lanes.nlp, &one}) {
    TransientBatch batch(*nlp, topt, init);
    tAllocations = 0;
    tCountAllocations = true;
    batch.run();
    tCountAllocations = false;
    EXPECT_EQ(tAllocations, 0u);
    EXPECT_EQ(batch.stepsDone(), batch.totalSteps());
  }
}

/// A 3-stage current-starved MOS ring shaped like circuits/ico.cpp's
/// testbench: a diode-connected mirror pair biases the starving devices, and
/// each inverter's source sits on its starving device's drain, off the bulk,
/// so the body-effect arm of the device kernel runs.
struct StarvedRing {
  Netlist nl;
  std::array<NodeId, 3> ring{};
  linalg::Vector guess;
};

StarvedRing buildStarvedRing(const PvtCorner& c, double wScale, double ictrl) {
  const ProcessCard& card = n5Card();
  const MosParams nmos = applyPvt(card.nmos, MosType::kNmos, c, card.tnomK);
  const MosParams pmos = applyPvt(card.pmos, MosType::kPmos, c, card.tnomK);
  StarvedRing r;
  Netlist& nl = r.nl;
  nl.tempK = c.tempK();
  const NodeId vdd = nl.node("vdd");
  const NodeId nbias = nl.node("nbias");
  const NodeId pbias = nl.node("pbias");
  nl.addVSource(vdd, kGround, c.vdd);
  nl.addISource(vdd, nbias, ictrl);
  const double wst = 6e-6 * wScale;
  const MosGeometry gMir{wst, 2.0 * card.minL, 1.0};
  const MosGeometry gInvN{2e-6 * wScale, card.minL, 1.0};
  const MosGeometry gInvP{4e-6 * wScale, card.minL, 1.0};
  const MosGeometry gStN{wst, card.minL, 1.0};
  const MosGeometry gStP{2.0 * wst, card.minL, 1.0};
  nl.addMosfet("MNB", nbias, nbias, kGround, kGround, MosType::kNmos, gMir, nmos);
  nl.addMosfet("MNM", pbias, nbias, kGround, kGround, MosType::kNmos, gMir, nmos);
  nl.addMosfet("MPB", pbias, pbias, vdd, vdd, MosType::kPmos, gMir, pmos);
  for (int i = 0; i < 3; ++i) r.ring[i] = nl.node("r" + std::to_string(i));
  for (int i = 0; i < 3; ++i) {
    const NodeId in = r.ring[i];
    const NodeId out = r.ring[(i + 1) % 3];
    const NodeId vtp = nl.node("vtp" + std::to_string(i));
    const NodeId vtn = nl.node("vtn" + std::to_string(i));
    const std::string tag = std::to_string(i);
    nl.addMosfet("MSP" + tag, vtp, pbias, vdd, vdd, MosType::kPmos, gStP, pmos);
    nl.addMosfet("MP" + tag, out, in, vtp, vdd, MosType::kPmos, gInvP, pmos);
    nl.addMosfet("MN" + tag, out, in, vtn, kGround, MosType::kNmos, gInvN, nmos);
    nl.addMosfet("MSN" + tag, vtn, nbias, kGround, kGround, MosType::kNmos, gStN,
                 nmos);
  }
  r.guess.assign(nl.nodeCount(), 0.5 * c.vdd);
  r.guess[kGround] = 0.0;
  r.guess[static_cast<std::size_t>(vdd)] = c.vdd;
  r.guess[static_cast<std::size_t>(nbias)] = 0.4;
  r.guess[static_cast<std::size_t>(pbias)] = c.vdd - 0.4;
  return r;
}

TEST(SimBatchTransient, RingOscillatorTracesBitwiseMatchReference) {
  // The kitchen sink never oscillates and ties both MOSFETs' sources to
  // their bulks. Here four lanes at four corners and sizings are kicked off
  // their DC balance points (which the DC engine must find bit for bit too)
  // and ring for at least three periods; every lane's whole trace, and the
  // one-lane TransientSolver's, must equal the reference.
  const std::array<PvtCorner, kSimLanes> corners = {{
      {ProcessCorner::kTT, 0.70, 27.0},
      {ProcessCorner::kFF, 0.77, -40.0},
      {ProcessCorner::kSS, 0.63, 125.0},
      {ProcessCorner::kSF, 0.70, 85.0},
  }};
  const std::array<double, kSimLanes> wScales = {1.0, 0.8, 1.3, 1.1};
  const std::array<double, kSimLanes> ictrls = {110e-6, 90e-6, 140e-6, 120e-6};
  std::array<StarvedRing, kSimLanes> rings;
  std::array<linalg::Vector, kSimLanes> ics;
  std::array<const Netlist*, kSimLanes> nlp{};
  std::array<const linalg::Vector*, kSimLanes> guesses{};
  std::array<const linalg::Vector*, kSimLanes> init{};
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    rings[l] = buildStarvedRing(corners[l], wScales[l], ictrls[l]);
    nlp[l] = &rings[l].nl;
    guesses[l] = &rings[l].guess;
  }
  const auto dcs = solveDcBatch(nlp, guesses);
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const DcResult op = reference::solveDc(rings[l].nl, &rings[l].guess);
    ASSERT_TRUE(op.converged) << "lane " << l;
    expectSameDc(op, dcs[l], l);
    ics[l] = op.v;
    ics[l][static_cast<std::size_t>(rings[l].ring[0])] += 0.08;
    ics[l][static_cast<std::size_t>(rings[l].ring[1])] -= 0.05;
    init[l] = &ics[l];
  }
  const auto& fets = rings[0].nl.mosfets();
  ASSERT_TRUE(std::any_of(fets.begin(), fets.end(),
                          [](const auto& f) { return f.s != f.b; }));

  TransientOptions topt;
  topt.tStop = 1.0e-9;
  topt.dt = 0.8e-12;
  TransientBatch batch(nlp, topt, init);
  batch.run();
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const TransientResult ref =
        reference::runTransient(rings[l].nl, topt, ics[l]);
    ASSERT_TRUE(ref.completed) << "lane " << l;
    const Waveform w = ref.waveform(rings[l].ring[2]);
    EXPECT_GE(risingCrossings(w, 0.5 * corners[l].vdd).size(), 4u)
        << "lane " << l << " rang for fewer than three periods";
    expectSameTrace(ref, batch.result(static_cast<int>(l)), l);
    expectSameTrace(ref, TransientSolver(rings[l].nl, topt).run(ics[l]), l);
  }
}

// ---- AC ------------------------------------------------------------------

void expectSameAc(const linalg::ComplexVector& ref,
                  const linalg::ComplexVector& got, std::size_t lane) {
  ASSERT_EQ(ref.size(), got.size()) << "lane " << lane;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(sameValue(ref[i].real(), got[i].real()))
        << "lane " << lane << " unknown " << i;
    EXPECT_TRUE(sameValue(ref[i].imag(), got[i].imag()))
        << "lane " << lane << " unknown " << i;
  }
}

/// Reference operating points of `nls` and the pointers AcBatch takes.
struct AcOps {
  std::array<DcResult, kSimLanes> dcs;
  std::array<const DcResult*, kSimLanes> ops{};
  explicit AcOps(const std::array<Netlist, kSimLanes>& nls) {
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      dcs[l] = reference::solveDc(nls[l], nullptr);
      ops[l] = &dcs[l];
    }
  }
};

/// Unit current injected from node `from` into node `to` (either may be
/// ground) of a kitchen-sink lane; n1 into n3 by default.
linalg::Vector sinkInjection(const Netlist& nl, const char* from = "n1",
                             const char* to = "n3") {
  linalg::Vector b(nl.unknownCount(), 0.0);
  const NodeId f = nl.findNode(from);
  const NodeId t = nl.findNode(to);
  if (f != kGround) b[nl.nodeIndex(f)] -= 1.0;
  if (t != kGround) b[nl.nodeIndex(t)] += 1.0;
  return b;
}

TEST(SimBatchAc, EveryLaneBitwiseMatchesReference) {
  // Every unknown of every lane of a full batch — on the stamped excitation,
  // and with a current injection standing in for it on lanes 1 and 3 — of
  // the one-lane AcSolver's solveAt and sweep, and of one one-lane AcBatch
  // per lane reused across frequencies and injections, the way
  // NoiseAnalyzer drives it.
  const SinkLanes lanes;
  const AcOps dc(lanes.nls);
  std::array<reference::AcSystem, kSimLanes> refs;
  for (std::size_t l = 0; l < kSimLanes; ++l)
    refs[l] = reference::stampAc(lanes.nls[l], dc.dcs[l]);
  const linalg::Vector inj = sinkInjection(lanes.nls[0]);
  const std::array<const linalg::Vector*, kSimLanes> rhs = {nullptr, &inj,
                                                            nullptr, &inj};
  const std::vector<linalg::Vector> injections = {
      inj, sinkInjection(lanes.nls[0], "n3", "0"),
      sinkInjection(lanes.nls[0], "n2", "n5")};
  const NodeId n3 = lanes.nls[0].findNode("n3");
  std::vector<std::unique_ptr<AcBatch>> oneLane;
  for (std::size_t l = 0; l < kSimLanes; ++l)
    oneLane.push_back(std::make_unique<AcBatch>(
        std::array<const Netlist*, kSimLanes>{&lanes.nls[l]},
        std::array<const DcResult*, kSimLanes>{&dc.dcs[l]}));

  AcBatch ac(lanes.nlp, dc.ops);
  const auto freqs = AcSolver::logSpace(10.0, 20e9, 60);
  for (const double f : freqs) {
    ac.solveAt(f);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      const auto li = static_cast<int>(l);
      const linalg::ComplexVector ref = reference::solveAc(refs[l], f);
      const linalg::ComplexVector x = ac.solution(li);
      expectSameAc(ref, x, l);
      for (std::size_t node = 1; node < lanes.nls[l].nodeCount(); ++node) {
        const auto v = ac.nodeVoltage(li, static_cast<NodeId>(node));
        ASSERT_BITS_EQ(ref[node - 1].real(), v.real());
        ASSERT_BITS_EQ(ref[node - 1].imag(), v.imag());
      }
      expectSameAc(ref, AcSolver(lanes.nls[l], dc.dcs[l]).solveAt(f), l);
      for (const linalg::Vector& b : injections) {
        oneLane[l]->solveAt(f, {&b});
        expectSameAc(reference::solveAc(refs[l], f, &b),
                     oneLane[l]->solution(0), l);
      }
      oneLane[l]->solveAt(f);  // no injection leaks into the stamped solve
      expectSameAc(ref, oneLane[l]->solution(0), l);
    }
    ac.solveAt(f, rhs);
    for (std::size_t l = 0; l < kSimLanes; ++l)
      expectSameAc(reference::solveAc(refs[l], f, rhs[l]),
                   ac.solution(static_cast<int>(l)), l);
  }
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    const auto h = AcSolver(lanes.nls[l], dc.dcs[l]).sweep(freqs, n3);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      const auto ref = reference::solveAc(refs[l], freqs[i]);
      ASSERT_BITS_EQ(ref[lanes.nls[l].nodeIndex(n3)].real(), h[i].real());
      ASSERT_BITS_EQ(ref[lanes.nls[l].nodeIndex(n3)].imag(), h[i].imag());
    }
  }
}

TEST(SimBatchAc, NonFiniteLaneMatchesReference) {
  // A 1e300 F load on lane 2, swept to 1 THz, drives w*C past the double
  // range: that lane's factorization spreads inf and NaN through its
  // solution. Every bit pattern, NaN payloads and signs included, must still
  // equal the reference's, in the shared pass and in the one-lane AcSolver,
  // and the finite lanes beside it must stay finite and exact.
  std::array<Netlist, kSimLanes> nls;
  std::array<const Netlist*, kSimLanes> nlp{};
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    nls[l] = buildSink(kCorners[l], kWScales[l]);
    nls[l].addCapacitor(nls[l].findNode("n3"), kGround, l == 2 ? 1e300 : 1e-12);
    nlp[l] = &nls[l];
  }
  const AcOps dc(nls);
  AcBatch ac(nlp, dc.ops);
  std::size_t nonFinite = 0;
  for (const double f : AcSolver::logSpace(1e6, 1e12, 13)) {
    ac.solveAt(f);
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      const linalg::ComplexVector ref =
          reference::solveAc(reference::stampAc(nls[l], dc.dcs[l]), f);
      const linalg::ComplexVector x = ac.solution(static_cast<int>(l));
      expectSameAc(ref, x, l);
      expectSameAc(ref, AcSolver(nls[l], dc.dcs[l]).solveAt(f), l);
      for (std::size_t i = 0; i + 1 < nls[l].nodeCount(); ++i) {
        const bool finite =
            std::isfinite(x[i].real()) && std::isfinite(x[i].imag());
        if (l != 2) {
          ASSERT_TRUE(finite) << "lane " << l << " at " << f << " Hz";
        }
        if (!finite) ++nonFinite;
      }
    }
  }
  EXPECT_GT(nonFinite, 0u) << "the 1e300 F lane never went non-finite";
}

TEST(SimBatchAc, EveryLaneSubsetAndSlotPermutationKeepsItsBits) {
  const SinkLanes lanes;
  const AcOps dc(lanes.nls);
  const linalg::Vector inj = sinkInjection(lanes.nls[0]);
  const std::array<const linalg::Vector*, kSimLanes> rhs = {nullptr, &inj,
                                                            nullptr, nullptr};
  const std::vector<double> freqs = {10.0, 1e6, 1e9, 20e9};
  std::vector<std::array<linalg::ComplexVector, kSimLanes>> want(freqs.size());
  {
    AcBatch full(lanes.nlp, dc.ops);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      full.solveAt(freqs[i], rhs);
      for (std::size_t l = 0; l < kSimLanes; ++l)
        want[i][l] = full.solution(static_cast<int>(l));
    }
  }
  forEachSubsetAndSlotPermutation([&](unsigned keep, const auto& slot) {
    std::array<const Netlist*, kSimLanes> nlp{};
    std::array<const DcResult*, kSimLanes> ops{};
    std::array<const linalg::Vector*, kSimLanes> prhs{};
    for (std::size_t l = 0; l < kSimLanes; ++l) {
      if (!(keep & (1u << l))) continue;
      nlp[slot[l]] = lanes.nlp[l];
      ops[slot[l]] = dc.ops[l];
      prhs[slot[l]] = rhs[l];
    }
    AcBatch part(nlp, ops);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      part.solveAt(freqs[i], prhs);
      for (std::size_t l = 0; l < kSimLanes; ++l)
        if (keep & (1u << l))
          expectSameAc(want[i][l], part.solution(static_cast<int>(slot[l])), l);
    }
  });
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

using testing_stats::countersOf;

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
  // every corner of the nine-corner sign-off set, and every pool the
  // requests are made from (none, or a task of 1, 2 or 4 threads, on which
  // the engines fan their lane chunks out), the engine over the lane-batched
  // backend returns byte-identical
  // results, ledger, and stats (minus wall-clock) to the engine over the
  // width-1 backend of one-slot passes. Every (sizing, corner) request is
  // distinct, so each one misses the fresh memos and exercises the backend
  // dispatch under test.
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

    for (const std::size_t pool : testing_pool::kPoolSizes) {
      EvalEngine oneSlotEngine(oneSlotOnly(problem));
      EvalEngine batchEngine(problem);
      testing_pool::inPoolTask(pool, [&] {
        for (const auto& v : sizings) {
          const auto ro = oneSlotEngine.evalBatch(cornerIdx, v,
                                                  pvt::BlockKind::kSearch);
          const auto rb = batchEngine.evalBatch(cornerIdx, v,
                                                pvt::BlockKind::kSearch);
          ASSERT_EQ(ro.size(), rb.size());
          for (std::size_t c = 0; c < ro.size(); ++c) {
            ASSERT_EQ(ro[c].ok, rb[c].ok)
                << name << " corner " << c << " pool " << pool;
            ASSERT_EQ(ro[c].failure, rb[c].failure);
            ASSERT_EQ(ro[c].measurements.size(), rb[c].measurements.size());
            for (std::size_t m = 0; m < ro[c].measurements.size(); ++m)
              ASSERT_TRUE(
                  sameBits(ro[c].measurements[m], rb[c].measurements[m]))
                  << name << " corner " << c << " meas " << m << " pool "
                  << pool;
          }
        }
      });
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
      EXPECT_EQ(countersOf(oneSlotEngine.stats()),
                countersOf(batchEngine.stats()));
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
    EvalEngine oneSlotEngine(oneSlotOnly(problem));
    EvalEngine batchEngine(problem);
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

TEST(EvalEngineLookahead, PackedLanesMatchOneRequestAtATime) {
  // Cross-request lane packing: each one-point request offers every request
  // still to come as its lookahead, so lanes mix sizings and corners inside
  // one 4-lane pass. Slot bits, stats, ledger and publish order must be
  // exactly what one request at a time produces on the same backend, clean
  // and under a fault plan (faults are drawn per (point, corner, attempt),
  // so a lane simulated ahead draws the attempt its request would have), off
  // a pool and from tasks of 1, 2 and 4 threads. A duplicated point
  // exercises the memo: its clean requests hit in both engines, so the
  // lookahead skips them. Every offered request is later made, so no lane is
  // wasted.
  const auto& reg = circuits::Registry::global();
  core::SizingProblem problem =
      reg.makeProblem("two_stage_opamp", pvt::nineCornerSet(1.1));
  auto passes = std::make_shared<std::atomic<std::size_t>>(0);
  auto lanes = std::make_shared<std::atomic<std::size_t>>(0);
  problem.evaluateBatch = [fused = problem.evaluateBatch, passes, lanes](
                              const linalg::Vector* const* sizes,
                              const sim::PvtCorner* corners,
                              core::EvalResult* results, std::size_t count) {
    ++*passes;
    *lanes += count;
    fused(sizes, corners, results, count);
  };
  auto points = probeSizings(problem.space, 3);
  points.push_back(points[0]);  // repeats hit the memo
  const std::size_t nc = problem.corners.size();
  const std::size_t n = points.size() * nc;

  sim::FaultPlanConfig faulty;
  faulty.seed = 2021;
  faulty.nonConvergenceRate = 0.30;
  faulty.nonFiniteRate = 0.05;
  for (const bool withFaults : {false, true}) {
    for (const std::size_t pool : testing_pool::kPoolSizes) {
      EvalEngine ahead(problem);
      EvalEngine sequential(problem);
      auto sharedAhead = std::make_shared<SharedEvalCache>(4);
      auto sharedSeq = std::make_shared<SharedEvalCache>(4);
      ahead.attachSharedCache(sharedAhead, "opamp");
      sequential.attachSharedCache(sharedSeq, "opamp");
      if (withFaults) {
        const auto plan = std::make_shared<const sim::FaultPlan>(faulty);
        ahead.injectFaults(plan, "opamp");
        sequential.injectFaults(plan, "opamp");
        const RetryPolicy retry{/*maxAttempts=*/2};
        ahead.setRetryPolicy(retry);
        sequential.setRetryPolicy(retry);
      }
      passes->store(0);
      lanes->store(0);

      std::vector<core::EvalResult> flat(n), ref(n);
      std::size_t packedPasses = 0, packedLanes = 0;
      testing_pool::inPoolTask(pool, [&] {
        for (std::size_t i = 0; i < n; ++i) {
          const Lookahead rest = [&](std::size_t k, linalg::Vector& sizes,
                                     std::size_t& corner) {
            const std::size_t j = i + 1 + k;
            if (j >= n) return false;
            sizes = points[j / nc];
            corner = j % nc;
            return true;
          };
          flat[i] = ahead.evalOne(i % nc, points[i / nc],
                                  pvt::BlockKind::kSearch, rest);
        }
        ahead.clearLookahead();
        packedPasses = passes->load();
        packedLanes = lanes->load();
        for (std::size_t i = 0; i < n; ++i)
          ref[i] = sequential.evalOne(i % nc, points[i / nc],
                                      pvt::BlockKind::kSearch);
      });
      const std::string where = std::string(withFaults ? "faulty" : "clean") +
                                " pool " + std::to_string(pool);

      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ref[i].ok, flat[i].ok) << "slot " << i << ' ' << where;
        ASSERT_EQ(ref[i].failure, flat[i].failure);
        ASSERT_EQ(ref[i].measurements.size(), flat[i].measurements.size());
        for (std::size_t m = 0; m < ref[i].measurements.size(); ++m)
          ASSERT_TRUE(sameBits(ref[i].measurements[m], flat[i].measurements[m]))
              << "slot " << i << " meas " << m << ' ' << where;
      }

      // Nothing was wasted, so the lane evaluations match too, and every
      // one of them reached the backend.
      const EvalStats& sp = ahead.stats();
      const EvalStats& ss = sequential.stats();
      EXPECT_EQ(countersOf(sp), countersOf(ss)) << where;
      EXPECT_EQ(sp.attempts, sp.simulated + sp.faults) << where;
      EXPECT_EQ(ahead.cacheSize(), sequential.cacheSize()) << where;
      if (!withFaults) {
        EXPECT_EQ(packedLanes, sp.attempts) << where;
        // 27 distinct misses in full 4-lane passes: 7 passes, not 27.
        EXPECT_EQ(packedPasses, (ss.simulated + 3) / 4) << where;
      }

      const auto& lp = ahead.ledger().blocks();
      const auto& ls = sequential.ledger().blocks();
      ASSERT_EQ(lp.size(), ls.size());
      for (std::size_t i = 0; i < lp.size(); ++i) {
        EXPECT_EQ(lp[i].cornerIndex, ls[i].cornerIndex) << "block " << i;
        EXPECT_EQ(lp[i].kind, ls[i].kind);
        EXPECT_EQ(lp[i].meetsSpec, ls[i].meetsSpec);
        EXPECT_EQ(lp[i].cached, ls[i].cached);
        EXPECT_EQ(lp[i].failed, ls[i].failed);
        EXPECT_EQ(lp[i].retries, ls[i].retries);
        EXPECT_EQ(lp[i].backoff, ls[i].backoff);
      }
      const FailureRecord& fp = ahead.firstFailure();
      const FailureRecord& fs = sequential.firstFailure();
      EXPECT_EQ(fp.valid, fs.valid) << where;
      EXPECT_EQ(fp.request, fs.request);
      EXPECT_EQ(fp.cornerIndex, fs.cornerIndex);
      EXPECT_EQ(fp.cls, fs.cls);
      EXPECT_EQ(fp.attempts, fs.attempts);

      const auto pubAhead = ahead.drainPublishJournal();
      const auto pubSeq = sequential.drainPublishJournal();
      ASSERT_EQ(pubAhead.size(), pubSeq.size()) << where;
      for (std::size_t i = 0; i < pubAhead.size(); ++i)
        EXPECT_EQ(pubAhead[i].key, pubSeq[i].key) << "publish " << i;
      // The lookahead never probed the shared cache.
      EXPECT_EQ(sharedAhead->totals().hits, sharedSeq->totals().hits);
      EXPECT_EQ(sharedAhead->totals().misses, sharedSeq->totals().misses);
    }
  }
}

TEST(EvalEngineLookahead, OnlyMissesLookAheadAndUnusedLanesCountAsAttempts) {
  // The lookahead is built only when a request must simulate, it takes only
  // offered requests that miss the memo, and a dropped lane shows up in
  // `attempts` alone: attempts - simulated - faults counts it.
  const auto& reg = circuits::Registry::global();
  const auto problem =
      reg.makeProblem("two_stage_opamp", pvt::nineCornerSet(1.1));
  const auto points = probeSizings(problem.space, 2);
  EvalEngine engine(problem);
  std::size_t offers = 0;
  // Offers corners 0, 1, 2, 2, 3, 4, 5 of points[0].
  const Lookahead offerRest = [&](std::size_t k, linalg::Vector& sizes,
                                  std::size_t& corner) {
    ++offers;
    if (k >= 7) return false;
    sizes = points[0];
    corner = k <= 2 ? k : k - 1;
    return true;
  };
  // Corner 1 goes into the memo first. The lookahead of the corner-0 miss
  // skips corner 0 (the request itself), corner 1 (memo) and the second
  // corner 2 (already in the chunk), and takes corners 2, 3, 4: three lanes
  // fill the chunk, after six offers.
  engine.evalOne(1, points[0], pvt::BlockKind::kSearch);
  EXPECT_EQ(engine.lookaheadSize(), 0u);
  engine.evalOne(0, points[0], pvt::BlockKind::kSearch, offerRest);
  EXPECT_EQ(offers, 6u);
  EXPECT_EQ(engine.lookaheadSize(), 3u);
  EXPECT_EQ(engine.stats().attempts, 5u);
  EXPECT_EQ(engine.stats().simulated, 2u);
  // A hit (here from the memo) never builds a lookahead; a buffered result
  // is taken without a backend call.
  offers = 0;
  engine.evalOne(0, points[0], pvt::BlockKind::kSearch, offerRest);
  engine.evalOne(2, points[0], pvt::BlockKind::kSearch, offerRest);
  EXPECT_EQ(offers, 0u);
  EXPECT_EQ(engine.stats().attempts, 5u);
  EXPECT_EQ(engine.stats().simulated, 3u);
  // Dropping the buffer wastes corners 3 and 4.
  EXPECT_EQ(engine.lookaheadSize(), 2u);
  engine.clearLookahead();
  EXPECT_EQ(engine.lookaheadSize(), 0u);
  engine.evalOne(3, points[0], pvt::BlockKind::kSearch);
  const EvalStats& st = engine.stats();
  EXPECT_EQ(st.simulated, 4u);
  EXPECT_EQ(st.attempts - st.simulated - st.faults, 2u);
  EXPECT_EQ(st.requests, 5u);
  EXPECT_EQ(engine.ledger().totalBlocks(), 5u);

  // A width-1 backend never consults the lookahead.
  EvalEngine narrow(oneSlotOnly(problem));
  offers = 0;
  narrow.evalOne(0, points[1], pvt::BlockKind::kSearch, offerRest);
  EXPECT_EQ(offers, 0u);
  EXPECT_EQ(narrow.stats().attempts, 1u);
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
    // Off a pool the chunks run inline, in submission order, so the recorded
    // shape is deterministic; the requests fall on distinct corners, so each
    // one misses the fresh memo.
    EvalEngine engine(backend, problem.space, problem.corners, {});
    EvalEngine scalarEngine(std::make_shared<CallbackBackend>(chunkModel),
                            problem.space, problem.corners, {});
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
