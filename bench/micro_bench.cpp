// Micro-benchmarks (google-benchmark): throughput of the substrates every
// experiment sits on — circuit evaluations, surrogate training, LU solves,
// and the batched-vs-per-sample surrogate scoring path that dominates the
// trust-region planner's inner loop (Algorithm 1 line 10).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <thread>

#include "circuits/ico.hpp"
#include "circuits/ldo.hpp"
#include "circuits/registry.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "common/thread_pool.hpp"
#include "core/planner.hpp"
#include "core/surrogate.hpp"
#include "eval/eval_engine.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "opt/extra_trees.hpp"
#include "orch/scheduler.hpp"
#include "orch/wire.hpp"
#include "pvt/corners.hpp"
#include "rl/actor_critic.hpp"
#include "rl/ppo.hpp"
#include "rl/trpo.hpp"
#include "sim/dc.hpp"
#include "sim/netlist.hpp"
#include "sim/op_batch.hpp"
#include "sim/process.hpp"

using namespace trdse;

namespace {

void BM_OpampEval(benchmark::State& state) {
  const circuits::TwoStageOpamp amp(sim::bsim45Card());
  const auto space = circuits::TwoStageOpamp::designSpace(sim::bsim45Card());
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, 1.1, 27.0};
  std::mt19937_64 rng(1);
  const auto x = space.randomPoint(rng);
  for (auto _ : state) benchmark::DoNotOptimize(amp.evaluate(x, tt));
}
BENCHMARK(BM_OpampEval);

void BM_LdoEval(benchmark::State& state) {
  const circuits::Ldo ldo(sim::n6Card());
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, 0.75, 27.0};
  const auto x = circuits::Ldo::humanReferenceSizing();
  for (auto _ : state) benchmark::DoNotOptimize(ldo.evaluate(x, tt));
}
BENCHMARK(BM_LdoEval);

void BM_IcoEvalTransient(benchmark::State& state) {
  // One-point evaluation: a one-lane pass of the DC/transient lane engines,
  // which is what every one-point request costs.
  const circuits::Ico ico(sim::n5Card());
  const sim::PvtCorner tt{sim::ProcessCorner::kTT, 0.70, 27.0};
  const auto x = circuits::Ico::humanReferenceSizing();
  for (auto _ : state) benchmark::DoNotOptimize(ico.evaluate(x, tt));
}
BENCHMARK(BM_IcoEvalTransient);

void BM_IcoEvalTransientBatched(benchmark::State& state) {
  // One lane-blocked Ico::evaluateBatch call covering a 4-corner block; each
  // slot is bitwise identical to the one-lane evaluate() the bench above
  // times.
  // scripts/bench.sh normalizes by the block width, so the recorded per-point
  // time is directly comparable to BM_IcoEvalTransient.
  const circuits::Ico ico(sim::n5Card());
  const auto x = circuits::Ico::humanReferenceSizing();
  const std::array<sim::PvtCorner, sim::kSimLanes> corners = {{
      {sim::ProcessCorner::kTT, 0.70, 27.0},
      {sim::ProcessCorner::kFF, 0.77, -40.0},
      {sim::ProcessCorner::kSS, 0.63, 125.0},
      {sim::ProcessCorner::kSF, 0.70, 85.0},
  }};
  std::array<core::EvalResult, sim::kSimLanes> results;
  std::array<const linalg::Vector*, sim::kSimLanes> slotSizes;
  slotSizes.fill(&x);
  for (auto _ : state) {
    ico.evaluateBatch(slotSizes.data(), corners.data(), results.data(),
                      corners.size());
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corners.size()));
}
BENCHMARK(BM_IcoEvalTransientBatched);

// ---- Batched DC operating point: the lane-blocked Newton kernel ----
//
// Four (corner, sizing) operating points of a small MOS netlist solved one
// at a time (four one-lane DcSolver passes) vs through a single solveDcBatch
// call. The batch's lanes are bitwise identical to the one-lane solves
// (tests/sim_batch_test.cpp locks this), so the pair isolates what filling
// the lanes of the lockstep Newton / lane-blocked LU pipeline buys.

sim::Netlist dcOpNetlist(const sim::PvtCorner& c, double wScale) {
  const sim::ProcessCard& card = sim::bsim45Card();
  const sim::MosParams nmos =
      sim::applyPvt(card.nmos, sim::MosType::kNmos, c, card.tnomK);
  const sim::MosParams pmos =
      sim::applyPvt(card.pmos, sim::MosType::kPmos, c, card.tnomK);
  sim::Netlist nl;
  nl.tempK = c.tempK();
  const sim::NodeId vdd = nl.node("vdd");
  const sim::NodeId in = nl.node("in");
  const sim::NodeId mid = nl.node("mid");
  const sim::NodeId out = nl.node("out");
  nl.addVSource(vdd, sim::kGround, c.vdd, 0.0);
  nl.addResistor(vdd, in, 10e3);
  nl.addDiode(in, sim::kGround);
  const sim::MosGeometry gn{1e-6 * wScale, card.minL, 1.0};
  const sim::MosGeometry gp{2e-6 * wScale, card.minL, 1.0};
  nl.addMosfet("M1", mid, in, sim::kGround, sim::kGround, sim::MosType::kNmos,
               gn, nmos);
  nl.addMosfet("M2", out, mid, vdd, vdd, sim::MosType::kPmos, gp, pmos);
  nl.addResistor(vdd, mid, 5e3);
  nl.addResistor(out, sim::kGround, 20e3);
  return nl;
}

struct DcOpLanes {
  std::array<sim::Netlist, sim::kSimLanes> nls;
  std::array<linalg::Vector, sim::kSimLanes> guesses;
  std::array<const sim::Netlist*, sim::kSimLanes> nlp{};
  std::array<const linalg::Vector*, sim::kSimLanes> gp{};
  DcOpLanes() {
    const std::array<sim::PvtCorner, sim::kSimLanes> corners = {{
        {sim::ProcessCorner::kTT, 1.1, 27.0},
        {sim::ProcessCorner::kFF, 1.21, -40.0},
        {sim::ProcessCorner::kSS, 0.99, 125.0},
        {sim::ProcessCorner::kSF, 1.1, 85.0},
    }};
    const std::array<double, sim::kSimLanes> wScales = {1.0, 1.7, 0.6, 2.3};
    for (std::size_t l = 0; l < sim::kSimLanes; ++l) {
      nls[l] = dcOpNetlist(corners[l], wScales[l]);
      guesses[l].assign(nls[l].nodeCount(), 0.0);
      nlp[l] = &nls[l];
      gp[l] = &guesses[l];
    }
  }
};

void BM_DcOpScalar(benchmark::State& state) {
  const DcOpLanes lanes;
  for (auto _ : state) {
    for (std::size_t l = 0; l < sim::kSimLanes; ++l)
      benchmark::DoNotOptimize(sim::DcSolver(lanes.nls[l]).solve(lanes.gp[l]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sim::kSimLanes));
}
BENCHMARK(BM_DcOpScalar);

void BM_DcOpBatch(benchmark::State& state) {
  const DcOpLanes lanes;
  for (auto _ : state) {
    auto r = sim::solveDcBatch(lanes.nlp, lanes.gp);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sim::kSimLanes));
}
BENCHMARK(BM_DcOpBatch);

void BM_SurrogateEpoch(benchmark::State& state) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  linalg::Matrix xs(64, 9);
  linalg::Matrix ys(64, 4);
  for (std::size_t r = 0; r < xs.rows(); ++r) {
    for (std::size_t c = 0; c < xs.cols(); ++c) xs(r, c) = d(rng);
    for (std::size_t c = 0; c < ys.cols(); ++c) ys(r, c) = d(rng);
  }
  nn::MlpConfig cfg;
  cfg.layerSizes = {9, 48, 48, 4};
  nn::Mlp net(cfg, 3);
  nn::AdamOptimizer opt(3e-3);
  nn::TrainWorkspace ws;
  std::vector<std::size_t> order(xs.rows());
  for (auto _ : state) {
    nn::drawEpochOrder(rng, order);
    benchmark::DoNotOptimize(
        nn::trainEpochMse(net, opt, xs, ys, 16, order, ws));
  }
}
BENCHMARK(BM_SurrogateEpoch);

// One surrogate fit at the size the TRM chain runs it: each step refits every
// active corner's 9→48→48→4 network for 40 epochs on its local samples, about
// 14 of them (pvt9_trm's trm_s10 takes 13 240 Adam steps over 11 320
// epochs), so a fit is 40 single-batch epochs. The shuffle draws are the
// step's serial rng work, outside the timed fit.
void BM_SurrogateFit(benchmark::State& state) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  core::SurrogateConfig cfg;
  cfg.hiddenWidth = 48;
  cfg.epochsPerUpdate = 40;
  core::SpiceSurrogate sur(9, 4, cfg, 5);
  for (int i = 0; i < 14; ++i) {
    linalg::Vector x(9);
    for (auto& v : x) v = d(rng);
    sur.addSample(x, {x[0] + x[1], x[2] - x[3], x[4] * x[5], x[6]});
  }
  for (auto _ : state) {
    state.PauseTiming();
    sur.drawShuffles(rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sur.fit());
  }
}
BENCHMARK(BM_SurrogateFit);

// ---- Surrogate MC-candidate scoring: the planner's hot path ----
//
// Per TRM step the explorer scores mcSamples = 800 trust-region candidates on
// the NN surrogate. The per-sample baseline calls predict() 800 times (one
// matVec per layer each); the batched path runs the whole block through one
// GEMM per layer. Same math, same results — the ratio of these two benches is
// the planner-throughput speedup.

constexpr std::size_t kPlanDim = 9;    // two-stage opamp sizing dim
constexpr std::size_t kPlanMeas = 4;   // gain/ugbw/pm/power
constexpr std::size_t kPlanBatch = 800;  // paper's mcSamples

core::SpiceSurrogate makeTrainedSurrogate(std::mt19937_64& rng) {
  const core::SurrogateConfig cfg = core::autoConfigure(kPlanDim, kPlanMeas);
  core::SpiceSurrogate sur(kPlanDim, kPlanMeas, cfg, 7);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (int i = 0; i < 64; ++i) {
    linalg::Vector x(kPlanDim);
    for (auto& v : x) v = d(rng);
    linalg::Vector y = {x[0] + x[1], x[2] - x[3], x[4] * x[5], x[6]};
    sur.addSample(x, y);
  }
  sur.drawShuffles(rng);
  sur.fit();  // fit both scalers so the full transform chain is timed
  return sur;
}

linalg::Matrix makeCandidateBlock(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> d(0.0, 1.0);
  linalg::Matrix block(kPlanBatch, kPlanDim);
  for (std::size_t i = 0; i < block.size(); ++i) block.data()[i] = d(rng);
  return block;
}

void BM_SurrogateScorePerSample(benchmark::State& state) {
  std::mt19937_64 rng(11);
  const core::SpiceSurrogate sur = makeTrainedSurrogate(rng);
  const linalg::Matrix block = makeCandidateBlock(rng);
  linalg::Vector x(kPlanDim);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t s = 0; s < kPlanBatch; ++s) {
      x.assign(block.row(s), block.row(s) + kPlanDim);
      acc += sur.predict(x)[0];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPlanBatch);
}
BENCHMARK(BM_SurrogateScorePerSample);

void BM_SurrogateScoreBatch(benchmark::State& state) {
  std::mt19937_64 rng(11);
  const core::SpiceSurrogate sur = makeTrainedSurrogate(rng);
  const linalg::Matrix block = makeCandidateBlock(rng);
  linalg::Matrix preds;
  core::SpiceSurrogate::PredictWorkspace ws;
  for (auto _ : state) {
    sur.predictBatch(block, preds, ws);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPlanBatch);
}
BENCHMARK(BM_SurrogateScoreBatch);

// The other half of a planning step: drawing the 800 trust-region
// candidates and snapping each onto the opamp's grid (seven of its nine
// variables are log-scale) as unit-space rows, ready for predictBatch — a
// plan with no surrogate to score on, inline.
void BM_PlanCandidates(benchmark::State& state) {
  const auto space = circuits::TwoStageOpamp::designSpace(sim::bsim45Card());
  const core::ValueFunction value({}, {});
  const linalg::Vector center(space.dim(), 0.5);
  std::mt19937_64 rng(17);
  core::CandidatePlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(space, value, {}, center, 0.08,
                                          kPlanBatch, rng, nullptr));
    benchmark::DoNotOptimize(planner.candidates().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPlanBatch);
}
BENCHMARK(BM_PlanCandidates);

void BM_GemmBatch800(benchmark::State& state) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  linalg::Matrix a(kPlanBatch, 70);
  linalg::Matrix w(70, 70);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = d(rng);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = d(rng);
  linalg::Matrix c;
  linalg::Matrix pack;
  for (auto _ : state) {
    linalg::matMulTransBInto(a, w, c, pack);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmBatch800);

// ---- Tree-BO surrogate: the customized-BO baseline's host work ----
//
// At 157 observations (what the Table I bakeoff's tree_bayes_opt job reaches)
// on a 9-variable grid, the default 30-tree forest is refitted at every few
// observations and scores 600 candidates per acquisition.
constexpr std::size_t kForestSamples = 157;
constexpr std::size_t kForestDim = 9;
constexpr std::size_t kAcquireCandidates = 600;

void forestData(std::vector<linalg::Vector>& xs, std::vector<double>& ys) {
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (std::size_t i = 0; i < kForestSamples; ++i) {
    linalg::Vector x(kForestDim);
    double y = 0.0;
    for (double& v : x) {
      v = std::round(d(rng) * 100.0) / 100.0;  // grid-snapped, as in BO
      y += std::sin(3.0 * v);
    }
    xs.push_back(std::move(x));
    ys.push_back(y);
  }
}

void BM_ExtraTreesFit(benchmark::State& state) {
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  forestData(xs, ys);
  opt::ExtraTreesRegressor forest;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    forest.fit(xs, ys, seed++);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ExtraTreesFit);

// The forest's share of one acquisition: 600 candidates predicted 64 at a
// time and scanned for the UCB maximum (drawing them is not timed).
void BM_TreeBoAcquire(benchmark::State& state) {
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  forestData(xs, ys);
  opt::ExtraTreesRegressor forest;
  forest.fit(xs, ys, 1);
  std::mt19937_64 rng(22);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<double> candidates(kAcquireCandidates * kForestDim);
  for (double& v : candidates) v = d(rng);
  constexpr std::size_t kBlock = 64;
  std::vector<opt::Prediction> preds(kBlock);
  for (auto _ : state) {
    double bestAcq = -std::numeric_limits<double>::infinity();
    std::size_t best = 0;
    for (std::size_t c0 = 0; c0 < kAcquireCandidates; c0 += kBlock) {
      const std::size_t rows = std::min(kBlock, kAcquireCandidates - c0);
      forest.predict(candidates.data() + c0 * kForestDim, rows, preds.data());
      for (std::size_t r = 0; r < rows; ++r) {
        const double acq = preds[r].mean + 1.0 * preds[r].std;
        if (acq > bestAcq) {
          bestAcq = acq;
          best = c0 + r;
        }
      }
    }
    benchmark::DoNotOptimize(best);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kAcquireCandidates);
}
BENCHMARK(BM_TreeBoAcquire);

// ---- Thread-parallel corner sweep: the PVT sign-off hot path ----
//
// One sizing evaluated on all 9 PVT corners through the EvalEngine. Serial
// is the one-point reference dispatch (off any pool, over a width-1
// CallbackBackend without the fused callback, so nine one-lane passes);
// Pooled runs the engine inside a task of a hardware-sized pool, as a
// scheduler round steps a job, so the engine fans its misses out on that
// pool and each corner chunk fuses in the lane-blocked backend. Both modes
// produce bitwise-identical results (tests/sim_batch_test.cpp), so the ratio
// is pure dispatch speedup; CI gates Serial/Pooled >= 1.8x on
// scripts/bench.sh output.

void runCornerSweep(benchmark::State& state, bool pooled, bool fused) {
  static const core::SizingProblem prob = [] {
    std::vector<sim::PvtCorner> cs;
    for (auto pc : {sim::ProcessCorner::kTT, sim::ProcessCorner::kSS,
                    sim::ProcessCorner::kFF}) {
      for (double vdd : {1.0, 1.1, 1.2}) cs.push_back({pc, vdd, 27.0});
    }
    return circuits::Registry::global().makeProblem("two_stage_opamp",
                                                    std::move(cs));
  }();
  std::mt19937_64 rng(1);
  const auto x = prob.space.randomPoint(rng);
  std::vector<std::size_t> cornerIdx(prob.corners.size());
  for (std::size_t i = 0; i < cornerIdx.size(); ++i) cornerIdx[i] = i;
  // Cache off so every iteration pays for all 9 simulations; ledger off so
  // the timed loop does not grow a block list across iterations.
  eval::EvalEngine engine(
      std::make_shared<eval::CallbackBackend>(
          prob.evaluate, "sweep",
          fused ? prob.evaluateBatch : core::CornerBatchEvalFn{}),
      prob.space, prob.corners, eval::MeetsSpecFn{},
      {/*cacheEvals=*/false, /*recordLedger=*/false});
  const auto sweep = [&] {
    for (auto _ : state) {
      auto r = engine.evalBatch(cornerIdx, x, pvt::BlockKind::kSearch);
      benchmark::DoNotOptimize(r.data());
    }
  };
  if (pooled) {
    common::ThreadPool pool(/*threads=*/0);  // hardware concurrency
    pool.parallelFor(1, [&](std::size_t) { sweep(); });
  } else {
    sweep();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cornerIdx.size()));
}

void BM_PvtCornerSweepSerial(benchmark::State& state) {
  runCornerSweep(state, /*pooled=*/false, /*fused=*/false);
}
BENCHMARK(BM_PvtCornerSweepSerial);

void BM_PvtCornerSweepPooled(benchmark::State& state) {
  runCornerSweep(state, /*pooled=*/true, /*fused=*/true);
}
BENCHMARK(BM_PvtCornerSweepPooled);

// ---- Repeated PVT sweep through the eval engine: memoization hot path ----
//
// Progressive PVT search, strategy comparisons, and RL episodes re-evaluate
// the same snapped sizings on the same corners over and over. The engine's
// EvalCache serves those repeats for free: this pair sweeps 4 candidate
// sizings over the 9-corner sign-off set for 8 rounds — uncached pays
// 4*9*8 = 288 simulations per iteration, cached pays the first round's 36
// and serves the remaining 252 from the memo. The ratio is the measured
// blocks-saved speedup recorded in BENCH_micro.json.

void runRepeatedSweep(benchmark::State& state, bool cached) {
  static const core::SizingProblem prob = [] {
    return circuits::Registry::global().makeProblem(
        "two_stage_opamp", pvt::nineCornerSet(sim::bsim45Card().nominalVdd));
  }();
  static const std::vector<linalg::Vector> points = [] {
    std::mt19937_64 rng(17);
    std::vector<linalg::Vector> pts;
    for (int i = 0; i < 4; ++i) pts.push_back(prob.space.randomPoint(rng));
    return pts;
  }();
  std::vector<std::size_t> cornerIdx(prob.corners.size());
  for (std::size_t i = 0; i < cornerIdx.size(); ++i) cornerIdx[i] = i;
  for (auto _ : state) {
    eval::EvalEngine engine(prob, {/*cacheEvals=*/cached});
    for (int round = 0; round < 8; ++round) {
      for (const auto& p : points) {
        auto r = engine.evalBatch(cornerIdx, p, pvt::BlockKind::kSearch);
        benchmark::DoNotOptimize(r.data());
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          static_cast<std::int64_t>(points.size()) *
                          static_cast<std::int64_t>(cornerIdx.size()));
}

void BM_PvtRepeatedSweepUncached(benchmark::State& state) {
  runRepeatedSweep(state, false);
}
BENCHMARK(BM_PvtRepeatedSweepUncached);

void BM_PvtRepeatedSweepCached(benchmark::State& state) {
  runRepeatedSweep(state, true);
}
BENCHMARK(BM_PvtRepeatedSweepCached);

// ---- RL policy-update epochs: the training half of each search step ----
//
// A synthetic rollout shaped like the two-stage-opamp sizing environment
// (9 heads, obsDim 9 + 2*4) runs through the full PPO epoch schedule and a
// full TRPO natural-gradient update. Parameters and optimizer/RNG state are
// re-seeded every iteration so every iteration traverses the same update
// trajectory.

constexpr std::size_t kRlHeads = 9;
constexpr std::size_t kRlObsDim = kRlHeads + 2 * 4;
constexpr std::size_t kRlHidden = 64;

rl::FlatRollout makeSyntheticRollout(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> act(
      0, rl::SizingEnv::kActionsPerHead - 1);
  rl::FlatRollout f;
  f.observations.resize(n, kRlObsDim);
  for (std::size_t i = 0; i < f.observations.size(); ++i)
    f.observations.data()[i] = d(rng);
  f.actions.resize(n);
  for (auto& a : f.actions) {
    a.resize(kRlHeads);
    for (auto& v : a) v = act(rng);
  }
  f.logProbs.resize(n);
  f.advantages.resize(n);
  f.returns.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    f.logProbs[i] = -1.0986 * static_cast<double>(kRlHeads) + 0.1 * d(rng);
    f.advantages[i] = d(rng);
    f.returns[i] = 2.0 * d(rng);
  }
  rl::normalizeAdvantages(f.advantages);
  return f;
}

void BM_PpoUpdateBatched(benchmark::State& state) {
  rl::PpoConfig cfg;
  cfg.hidden = kRlHidden;
  const rl::FlatRollout data = makeSyntheticRollout(cfg.horizon, 41);
  nn::Mlp policy = rl::makePolicyNet(kRlObsDim, kRlHeads,
                                     rl::SizingEnv::kActionsPerHead,
                                     cfg.hidden, 43);
  nn::Mlp critic = rl::makeValueNet(kRlObsDim, cfg.hidden, 47);
  const linalg::Vector theta0 = policy.getParameters();
  const linalg::Vector phi0 = critic.getParameters();
  for (auto _ : state) {
    policy.setParameters(theta0);
    critic.setParameters(phi0);
    nn::AdamOptimizer policyOpt(cfg.learningRate);
    nn::AdamOptimizer criticOpt(cfg.valueLearningRate);
    std::mt19937_64 rng(55);
    rl::ppoUpdateBatched(policy, critic, policyOpt, criticOpt, data, cfg, rng);
    benchmark::DoNotOptimize(policy.getParameters().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.epochs * data.size()));
}

BENCHMARK(BM_PpoUpdateBatched);

void BM_TrpoUpdateBatched(benchmark::State& state) {
  rl::TrpoConfig cfg;
  cfg.hidden = kRlHidden;
  const rl::FlatRollout data = makeSyntheticRollout(cfg.horizon, 61);
  nn::Mlp policy = rl::makePolicyNet(kRlObsDim, kRlHeads,
                                     rl::SizingEnv::kActionsPerHead,
                                     cfg.hidden, 67);
  nn::Mlp critic = rl::makeValueNet(kRlObsDim, cfg.hidden, 71);
  const linalg::Vector theta0 = policy.getParameters();
  const linalg::Vector phi0 = critic.getParameters();
  for (auto _ : state) {
    policy.setParameters(theta0);
    critic.setParameters(phi0);
    nn::AdamOptimizer criticOpt(cfg.valueLearningRate);
    benchmark::DoNotOptimize(
        rl::trpoUpdate(policy, critic, criticOpt, data, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

BENCHMARK(BM_TrpoUpdateBatched);

// ---- Scheduler throughput: 8 concurrent jobs, shared vs. private cache
// vs. distributed workers ----
//
// Eight random searches sweep the same 2-D subspace of the 45nm opamp (the
// remaining sizes pinned mid-grid), the canonical "many jobs, one circuit"
// orchestrator workload: 9x9 = 81 distinct simulations against 8 x 48
// logical requests. With the shared cache, rounds after the first serve most
// requests from other jobs' published results; the private-cache run pays
// for every job's misses with real opamp evaluations.
//
// Every backend call additionally sleeps kEdaLatency, modeling the dominant
// cost of a real analog flow — the EDA simulator round trip (license,
// netlist elaboration, SPICE run), which is latency, not host CPU. That is
// exactly the regime the distributed scheduler targets: worker processes
// overlap their jobs' simulator waits, so BM_SchedulerThroughputDistributedN
// scales with N even on a single-core runner, just as N simulator seats
// would. The sleep applies identically to the private, shared, and
// distributed variants, so every speedup pair stays apples-to-apples.
constexpr std::chrono::milliseconds kEdaLatency{12};

core::SizingProblem opamp2dSubProblem() {
  core::SizingProblem full =
      circuits::Registry::global().makeProblem("two_stage_opamp");
  std::vector<core::ParamDef> sub = {full.space.param(0), full.space.param(1)};
  sub[0].steps = 9;
  sub[1].steps = 9;
  linalg::Vector pinned(full.space.dim());
  for (std::size_t d = 0; d < full.space.dim(); ++d)
    pinned[d] = full.space.gridValue(d, full.space.param(d).steps / 2);
  core::SizingProblem p;
  p.name = "opamp_2d";
  p.space = core::DesignSpace(std::move(sub));
  p.measurementNames = full.measurementNames;
  p.specs = full.specs;
  p.corners = full.corners;
  p.evaluate = [inner = full.evaluate, pinned](const linalg::Vector& v,
                                               const sim::PvtCorner& c) {
    linalg::Vector x = pinned;
    x[0] = v[0];
    x[1] = v[1];
    std::this_thread::sleep_for(kEdaLatency);  // simulator seat round trip
    return inner(x, c);
  };
  return p;
}

void runSchedulerBench(benchmark::State& state, bool sharedCache,
                       std::size_t workers) {
  const core::SizingProblem base = opamp2dSubProblem();
  constexpr std::size_t kJobs = 8;
  for (auto _ : state) {
    orch::Scenario sc;
    sc.name = "bench";
    sc.threads = 2;  // equal per-process threads across all variants
    sc.slice = 12;
    sc.sharedCache = sharedCache;
    sc.cacheShards = 8;
    sc.workers = workers;
    for (std::size_t j = 0; j < kJobs; ++j) {
      orch::JobSpec spec;
      spec.name = "rs" + std::to_string(j);
      spec.circuit = "opamp_2d";
      spec.makeProblem = [&base] { return base; };
      spec.strategy = "random_search";
      spec.seed = 11 + j;
      spec.budget = 48;
      sc.jobs.push_back(std::move(spec));
    }
    orch::Scheduler scheduler(std::move(sc));
    benchmark::DoNotOptimize(scheduler.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobs));
}

void BM_SchedulerThroughputPrivate(benchmark::State& state) {
  runSchedulerBench(state, false, 0);
}
BENCHMARK(BM_SchedulerThroughputPrivate);

void BM_SchedulerThroughputShared(benchmark::State& state) {
  runSchedulerBench(state, true, 0);
}
BENCHMARK(BM_SchedulerThroughputShared);

// The same 8-job bakeoff fanned across worker processes (fork + checkpoint
// wire frames). Outcomes are bitwise identical to the in-process runs above
// (orch_dist_test holds them to it); the wall-clock win is overlapped
// simulator latency.
void BM_SchedulerThroughputDistributed1(benchmark::State& state) {
  runSchedulerBench(state, true, 1);
}
BENCHMARK(BM_SchedulerThroughputDistributed1);

void BM_SchedulerThroughputDistributed2(benchmark::State& state) {
  runSchedulerBench(state, true, 2);
}
BENCHMARK(BM_SchedulerThroughputDistributed2);

void BM_SchedulerThroughputDistributed4(benchmark::State& state) {
  runSchedulerBench(state, true, 4);
}
BENCHMARK(BM_SchedulerThroughputDistributed4);

// One representative round-result frame (the hot message of a distributed
// round: 12 publishes with 6 measurements each, stats, a strategy blob)
// encoded and decoded back — the per-round serialization overhead a worker
// adds on top of the raw socketpair write.
void BM_WireRoundTrip(benchmark::State& state) {
  orch::wire::JobRoundReport rep;
  rep.jobIndex = 3;
  rep.iterations = 48;
  rep.stats.requests = 48;
  rep.stats.simulated = 12;
  rep.stats.cacheHits = 20;
  rep.stats.sharedHits = 16;
  rep.stats.attempts = 48;
  for (std::size_t i = 0; i < 12; ++i) {
    orch::wire::PublishEntry e;
    e.key = {{i, i + 1}, i % 3};
    e.result.ok = true;
    e.result.measurements = {1.0, 2.5, -3.25, 4.0, 5.5, -6.75};
    rep.publishes.push_back(std::move(e));
  }
  rep.strategyBlob.assign(512, 'x');

  for (auto _ : state) {
    io::CheckpointWriter msg = orch::wire::makeMessage(
        orch::wire::kMsgRoundResult);
    msg.section("round").u64(7);
    orch::wire::writeJobRoundReport(msg.section("jobs"), rep);
    const std::string frame = orch::wire::encodeFrame(msg);
    const io::CheckpointReader reader =
        orch::wire::decodeFrame(frame.substr(8), "bench");
    io::SectionReader r = reader.section("jobs");
    benchmark::DoNotOptimize(orch::wire::readJobRoundReport(r));
  }
}
BENCHMARK(BM_WireRoundTrip);

}  // namespace

BENCHMARK_MAIN();
