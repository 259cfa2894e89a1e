// Parity and determinism tests for the batched multi-env RL training engine:
// the segment softmax kernels, the row-batched joint log-prob/entropy/KL
// helpers, the batched A2C/PPO/TRPO updates against test-local per-sample
// references (asserted *bitwise* with EXPECT_EQ, not within a tolerance),
// and lane-packed rollout collection against a one-request-at-a-time
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>

#include "common/thread_pool.hpp"
#include "eval_stats_eq.hpp"
#include "nn/distribution.hpp"
#include "nn/optimizer.hpp"
#include "rl/a2c.hpp"
#include "rl/actor_critic.hpp"
#include "rl/learner.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/trpo.hpp"
#include "rl/vec_env.hpp"

namespace trdse::rl {
namespace {

using linalg::Matrix;
using linalg::Vector;
using testing_stats::countersOf;

constexpr std::size_t kApH = SizingEnv::kActionsPerHead;

Matrix randomLogits(std::size_t rows, std::size_t cols, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> d(-2.5, 2.5);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = d(rng);
  return m;
}

// ---------- distribution / actor-critic batched kernels ----------

TEST(DistributionBatch, SegmentOpsMatchScalarBitwise) {
  std::mt19937_64 rng(3);
  const std::size_t heads = 5;
  const Matrix logits = randomLogits(17, heads * kApH, rng);
  Matrix sm, lsm;
  nn::softmaxSegments(logits, kApH, sm);
  nn::logSoftmaxSegments(logits, kApH, lsm);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    for (std::size_t h = 0; h < heads; ++h) {
      Vector hl(logits.row(r) + h * kApH, logits.row(r) + (h + 1) * kApH);
      const Vector p = nn::softmax(hl);
      const Vector lp = nn::logSoftmax(hl);
      for (std::size_t a = 0; a < kApH; ++a) {
        EXPECT_EQ(sm(r, h * kApH + a), p[a]);
        EXPECT_EQ(lsm(r, h * kApH + a), lp[a]);
      }
    }
  }
}

TEST(ActorCriticBatch, JointRowOpsMatchScalarBitwise) {
  std::mt19937_64 rng(7);
  const std::size_t heads = 4;
  const std::size_t n = 23;
  const Matrix logits = randomLogits(n, heads * kApH, rng);
  const Matrix oldLogits = randomLogits(n, heads * kApH, rng);
  std::uniform_int_distribution<std::size_t> act(0, kApH - 1);
  std::vector<std::vector<std::size_t>> actions(n);
  for (auto& a : actions) {
    a.resize(heads);
    for (auto& v : a) v = act(rng);
  }

  // The tables the trainers build once per pass and share across helpers.
  Matrix sm, lsm, oldSm, oldLsm;
  nn::softmaxSegments(logits, kApH, sm);
  nn::logSoftmaxSegments(logits, kApH, lsm);
  nn::softmaxSegments(oldLogits, kApH, oldSm);
  nn::logSoftmaxSegments(oldLogits, kApH, oldLsm);
  Vector lps;
  Matrix lpg, entg, klg;
  jointLogProbRowsFromTable(lsm, actions, kApH, lps);
  jointLogProbGradRowsFromTable(sm, actions, kApH, lpg);
  jointEntropyGradRowsFromTable(lsm, kApH, entg);
  jointKlGradRowsFromTables(oldSm, sm, klg);
  const double klSum = sumJointKlRowsFromTables(oldLsm, lsm, kApH);

  double refKlSum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const Vector row(logits.row(r), logits.row(r) + logits.cols());
    const Vector oldRow(oldLogits.row(r), oldLogits.row(r) + logits.cols());
    EXPECT_EQ(lps[r], jointLogProb(row, actions[r], kApH));
    const Vector g = jointLogProbGrad(row, actions[r], kApH);
    const Vector eg = jointEntropyGrad(row, kApH);
    const Vector kg = jointKlGrad(oldRow, row, kApH);
    for (std::size_t j = 0; j < g.size(); ++j) {
      EXPECT_EQ(lpg(r, j), g[j]);
      EXPECT_EQ(entg(r, j), eg[j]);
      EXPECT_EQ(klg(r, j), kg[j]);
    }
    refKlSum += jointKl(oldRow, row, kApH);
  }
  EXPECT_EQ(klSum, refKlSum);
}

// ---------- update parity: batched vs per-sample references, bitwise ----------
//
// The trainers run only the batched updates. The loops below are their
// references: one Mlp::forward/backward per rollout row on top of the
// per-sample joint* helpers, in the association order the batched kernels
// must reproduce.

/// One synchronous A2C gradient step, sample by sample.
void a2cUpdateReference(nn::Mlp& policy, nn::Mlp& critic,
                        nn::AdamOptimizer& policyOpt,
                      nn::AdamOptimizer& criticOpt,
                        const FlatRollout& data, const A2cConfig& cfg) {
  const std::size_t n = data.size();
  if (n == 0) return;
  const std::size_t obsDim = data.observations.cols();
  policy.zeroGrad();
  critic.zeroGrad();
  const double invN = 1.0 / static_cast<double>(n);
  Vector obs(obsDim);
  for (std::size_t i = 0; i < n; ++i) {
    obs.assign(data.observations.row(i), data.observations.row(i) + obsDim);
    // Policy: maximize A*logpi + beta*H  ->  descend on its negation.
    const Vector logits = policy.forward(obs);
    Vector g = jointLogProbGrad(logits, data.actions[i], kApH);
    const Vector eg = jointEntropyGrad(logits, kApH);
    for (std::size_t k = 0; k < g.size(); ++k)
      g[k] = -(data.advantages[i] * g[k] + cfg.entropyCoeff * eg[k]) * invN;
    policy.backward(g);

    // Critic: MSE to the GAE return.
    const Vector vp = critic.forward(obs);
    critic.backward({2.0 * (vp[0] - data.returns[i]) * invN});
  }
  nn::clipGradNorm(policy, cfg.maxGradNorm);
  nn::clipGradNorm(critic, cfg.maxGradNorm);
  policyOpt.step(policy);
  criticOpt.step(critic);
}

/// All PPO epochs/mini-batches for one rollout, sample by sample; `rng`
/// drives the mini-batch shuffles.
void ppoUpdateReference(nn::Mlp& policy, nn::Mlp& critic,
                        nn::AdamOptimizer& policyOpt,
                      nn::AdamOptimizer& criticOpt,
                        const FlatRollout& data, const PpoConfig& cfg,
                        std::mt19937_64& rng) {
  const std::size_t n = data.size();
  if (n == 0) return;
  const std::size_t obsDim = data.observations.cols();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Vector obs(obsDim);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t start = 0; start < order.size(); start += cfg.minibatch) {
      const std::size_t end = std::min(order.size(), start + cfg.minibatch);
      const double invB = 1.0 / static_cast<double>(end - start);
      policy.zeroGrad();
      critic.zeroGrad();
      for (std::size_t k = start; k < end; ++k) {
        const std::size_t i = order[k];
        obs.assign(data.observations.row(i),
                   data.observations.row(i) + obsDim);
        const double advantage = data.advantages[i];

        const Vector logits = policy.forward(obs);
        const double newLp = jointLogProb(logits, data.actions[i], kApH);
        const double ratio = std::exp(newLp - data.logProbs[i]);
        // Clipped surrogate: gradient flows only when unclipped term is
        // the active minimum.
        const bool clipped =
            (advantage > 0.0 && ratio > 1.0 + cfg.clipRatio) ||
            (advantage < 0.0 && ratio < 1.0 - cfg.clipRatio);
        Vector g(logits.size(), 0.0);
        if (!clipped) {
          g = jointLogProbGrad(logits, data.actions[i], kApH);
          for (double& gv : g) gv *= ratio * advantage;
        }
        const Vector eg = jointEntropyGrad(logits, kApH);
        for (std::size_t j = 0; j < g.size(); ++j)
          g[j] = -(g[j] + cfg.entropyCoeff * eg[j]) * invB;
        policy.backward(g);

        const Vector vp = critic.forward(obs);
        critic.backward({2.0 * (vp[0] - data.returns[i]) * invB});
      }
      nn::clipGradNorm(policy, cfg.maxGradNorm);
      nn::clipGradNorm(critic, cfg.maxGradNorm);
      policyOpt.step(policy);
      criticOpt.step(critic);
    }
  }
}

Vector obsRow(const FlatRollout& data, std::size_t i) {
  const double* r = data.observations.row(i);
  return Vector(r, r + data.observations.cols());
}

/// Mean gradient of the TRPO surrogate E[ratio * A] at theta_old.
Vector trpoSurrogateGradReference(nn::Mlp& policy, const FlatRollout& data) {
  policy.zeroGrad();
  const double invN = 1.0 / static_cast<double>(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Vector logits = policy.forward(obsRow(data, i));
    Vector g = jointLogProbGrad(logits, data.actions[i], kApH);
    // exp(newLp - oldLp) == 1 at theta_old; gradient of ratio*A is A*dlogpi.
    for (double& gv : g) gv *= data.advantages[i] * invN;
    policy.backward(g);
  }
  return policy.getGradients();
}

/// Mean gradient of KL(old || current) over the rollout states.
Vector trpoKlGradReference(nn::Mlp& policy, const FlatRollout& data,
                           const std::vector<Vector>& oldLogits) {
  policy.zeroGrad();
  const double invN = 1.0 / static_cast<double>(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Vector logits = policy.forward(obsRow(data, i));
    Vector g = jointKlGrad(oldLogits[i], logits, kApH);
    for (double& gv : g) gv *= invN;
    policy.backward(g);
  }
  return policy.getGradients();
}

double trpoMeanKlReference(const nn::Mlp& policy, const FlatRollout& data,
                           const std::vector<Vector>& oldLogits) {
  double kl = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i)
    kl += jointKl(oldLogits[i], policy.predict(obsRow(data, i)), kApH);
  return kl / static_cast<double>(data.size());
}

double trpoSurrogateReference(const nn::Mlp& policy, const FlatRollout& data) {
  double s = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double lp =
        jointLogProb(policy.predict(obsRow(data, i)), data.actions[i], kApH);
    s += std::exp(lp - data.logProbs[i]) * data.advantages[i];
  }
  return s / static_cast<double>(data.size());
}

/// One full TRPO update with every rollout-wide pass run sample by sample:
/// the same CG solve, line search and critic regression as trpoUpdate.
bool trpoUpdateReference(nn::Mlp& policy, nn::Mlp& critic,
                         nn::AdamOptimizer& criticOpt, const FlatRollout& data,
                         const TrpoConfig& cfg) {
  if (data.size() == 0) return false;
  std::vector<Vector> oldLogits;
  for (std::size_t i = 0; i < data.size(); ++i)
    oldLogits.push_back(policy.predict(obsRow(data, i)));

  const Vector g = trpoSurrogateGradReference(policy, data);
  if (linalg::norm2(g) < 1e-10) return false;

  const Vector theta0 = policy.getParameters();
  auto fvp = [&](const Vector& v) {
    constexpr double kEps = 1e-5;
    const double vNorm = linalg::norm2(v);
    if (vNorm < 1e-12) return linalg::scaled(v, cfg.cgDamping);
    policy.setParameters(theta0);
    policy.addToParameters(v, kEps / vNorm);
    Vector gk = trpoKlGradReference(policy, data, oldLogits);
    policy.setParameters(theta0);
    for (double& x : gk) x *= vNorm / kEps;
    linalg::axpy(cfg.cgDamping, v, gk);
    return gk;
  };

  Vector x(g.size(), 0.0);
  Vector r = g;
  Vector p = g;
  double rsOld = linalg::dot(r, r);
  for (std::size_t it = 0; it < cfg.cgIterations && rsOld > 1e-12; ++it) {
    const Vector fp = fvp(p);
    const double alpha = rsOld / std::max(1e-12, linalg::dot(p, fp));
    linalg::axpy(alpha, p, x);
    linalg::axpy(-alpha, fp, r);
    const double rsNew = linalg::dot(r, r);
    const double beta = rsNew / rsOld;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
    rsOld = rsNew;
  }

  const double xFx = linalg::dot(x, fvp(x));
  if (xFx <= 1e-12) return false;
  const double stepScale = std::sqrt(2.0 * cfg.maxKl / xFx);

  const double surrogate0 = trpoSurrogateReference(policy, data);
  double frac = 1.0;
  bool accepted = false;
  for (std::size_t ls = 0; ls < cfg.lineSearchSteps; ++ls, frac *= 0.5) {
    policy.setParameters(theta0);
    policy.addToParameters(x, stepScale * frac);
    const double kl = trpoMeanKlReference(policy, data, oldLogits);
    const double surr = trpoSurrogateReference(policy, data);
    if (kl <= cfg.maxKl * 1.5 && surr > surrogate0) {
      accepted = true;
      break;
    }
  }
  if (!accepted) policy.setParameters(theta0);

  for (std::size_t e = 0; e < cfg.valueEpochs; ++e) {
    critic.zeroGrad();
    const double invN = 1.0 / static_cast<double>(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const Vector vp = critic.forward(obsRow(data, i));
      critic.backward({2.0 * (vp[0] - data.returns[i]) * invN});
    }
    criticOpt.step(critic);
  }
  return accepted;
}

/// Synthetic flattened rollout with the statistics the updates expect
/// (normalized advantages, behavior log-probs near the policy's own).
FlatRollout syntheticRollout(std::size_t n, std::size_t obsDim,
                             std::size_t heads, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> act(0, kApH - 1);
  FlatRollout f;
  f.observations.resize(n, obsDim);
  for (std::size_t i = 0; i < f.observations.size(); ++i)
    f.observations.data()[i] = d(rng);
  f.actions.resize(n);
  for (auto& a : f.actions) {
    a.resize(heads);
    for (auto& v : a) v = act(rng);
  }
  f.logProbs.resize(n);
  f.advantages.resize(n);
  f.returns.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    f.logProbs[i] =
        -1.0986 * static_cast<double>(heads) + 0.1 * d(rng);  // ~uniform
    f.advantages[i] = d(rng);
    f.returns[i] = 2.0 * d(rng);
  }
  normalizeAdvantages(f.advantages);
  return f;
}

void expectParamsBitwiseEqual(const nn::Mlp& a, const nn::Mlp& b) {
  const Vector pa = a.getParameters();
  const Vector pb = b.getParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(RlUpdateParity, A2cBatchedMatchesPerSampleBitwise) {
  const std::size_t heads = 6;
  const std::size_t obsDim = 14;
  A2cConfig cfg;
  cfg.hidden = 32;
  const FlatRollout data = syntheticRollout(48, obsDim, heads, 101);

  nn::Mlp policyA = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 5);
  nn::Mlp policyB = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 5);
  nn::Mlp criticA = makeValueNet(obsDim, cfg.hidden, 6);
  nn::Mlp criticB = makeValueNet(obsDim, cfg.hidden, 6);
  nn::AdamOptimizer poA(cfg.learningRate), poB(cfg.learningRate);
  nn::AdamOptimizer coA(cfg.valueLearningRate), coB(cfg.valueLearningRate);

  for (int step = 0; step < 4; ++step) {
    a2cUpdateReference(policyA, criticA, poA, coA, data, cfg);
    a2cUpdateBatched(policyB, criticB, poB, coB, data, cfg);
  }
  expectParamsBitwiseEqual(policyA, policyB);
  expectParamsBitwiseEqual(criticA, criticB);
}

TEST(RlUpdateParity, PpoBatchedMatchesPerSampleBitwise) {
  const std::size_t heads = 5;
  const std::size_t obsDim = 12;
  PpoConfig cfg;
  cfg.hidden = 32;
  cfg.epochs = 3;
  cfg.minibatch = 16;
  // 70 % 16 != 0: exercises the ragged final mini-batch.
  const FlatRollout data = syntheticRollout(70, obsDim, heads, 202);

  nn::Mlp policyA = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 9);
  nn::Mlp policyB = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 9);
  nn::Mlp criticA = makeValueNet(obsDim, cfg.hidden, 10);
  nn::Mlp criticB = makeValueNet(obsDim, cfg.hidden, 10);
  nn::AdamOptimizer poA(cfg.learningRate), poB(cfg.learningRate);
  nn::AdamOptimizer coA(cfg.valueLearningRate), coB(cfg.valueLearningRate);
  std::mt19937_64 rngA(55);
  std::mt19937_64 rngB(55);

  for (int round = 0; round < 2; ++round) {
    ppoUpdateReference(policyA, criticA, poA, coA, data, cfg, rngA);
    ppoUpdateBatched(policyB, criticB, poB, coB, data, cfg, rngB);
  }
  EXPECT_EQ(rngA, rngB);  // both paths consumed the shuffle stream equally
  expectParamsBitwiseEqual(policyA, policyB);
  expectParamsBitwiseEqual(criticA, criticB);
}

TEST(RlUpdateParity, TrpoBatchedMatchesPerSampleBitwise) {
  const std::size_t heads = 4;
  const std::size_t obsDim = 10;
  TrpoConfig cfg;
  cfg.hidden = 24;
  const FlatRollout data = syntheticRollout(64, obsDim, heads, 303);

  nn::Mlp policyA = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 13);
  nn::Mlp policyB = makePolicyNet(obsDim, heads, kApH, cfg.hidden, 13);
  nn::Mlp criticA = makeValueNet(obsDim, cfg.hidden, 14);
  nn::Mlp criticB = makeValueNet(obsDim, cfg.hidden, 14);
  nn::AdamOptimizer coA(cfg.valueLearningRate), coB(cfg.valueLearningRate);

  for (int round = 0; round < 2; ++round) {
    const bool accA = trpoUpdateReference(policyA, criticA, coA, data, cfg);
    const bool accB = trpoUpdate(policyB, criticB, coB, data, cfg);
    EXPECT_EQ(accA, accB);
  }
  expectParamsBitwiseEqual(policyA, policyB);
  expectParamsBitwiseEqual(criticA, criticB);
}

/// 1-D toy problem: feasible band around x = 0.8.
core::SizingProblem bandProblem() {
  core::SizingProblem p;
  p.name = "band";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 65, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.93}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    r.measurements = {1.0 - std::abs(v[0] - 0.8)};
    return r;
  };
  return p;
}

void expectOutcomesEqual(const RlTrainOutcome& a, const RlTrainOutcome& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.totalSimulations, b.totalSimulations);
  EXPECT_EQ(a.simulationsToSolve, b.simulationsToSolve);
  EXPECT_EQ(a.bestEpisodeReturn, b.bestEpisodeReturn);
}

// ---------- parallel rollout collection ----------

/// The problem with a fused evaluator that loops over its scalar one (and
/// counts its calls and lanes): its collector runs sim::kSimLanes envs.
core::SizingProblem fused(core::SizingProblem p,
                          std::shared_ptr<std::atomic<std::size_t>> calls =
                              nullptr) {
  p.evaluateBatch = [fn = p.evaluate, calls](const Vector* const* sizes,
                                             const sim::PvtCorner* corners,
                                             core::EvalResult* results,
                                             std::size_t count) {
    if (calls) ++*calls;
    for (std::size_t i = 0; i < count; ++i)
      results[i] = fn(*sizes[i], corners[i]);
  };
  return p;
}

/// A 2-D bowl around (0.3, 0.7) whose simulation fails outright in one
/// corner of the grid; `spec` sets how close counts as solved.
core::SizingProblem bowlProblem(double spec = 0.95) {
  core::SizingProblem p;
  p.name = "bowl";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 33, false},
                               {"y", 0.0, 1.0, 33, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, spec}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    if (v[0] > 0.8 && v[1] < 0.2) return r;  // hard failure
    r.ok = true;
    const double dx = v[0] - 0.3;
    const double dy = v[1] - 0.7;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy)};
    return r;
  };
  return p;
}

void expectFlatBitwiseEqual(const FlatRollout& a, const FlatRollout& b,
                            const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  ASSERT_EQ(a.observations.size(), b.observations.size()) << where;
  for (std::size_t i = 0; i < a.observations.size(); ++i)
    EXPECT_EQ(a.observations.data()[i], b.observations.data()[i]) << where;
  EXPECT_EQ(a.actions, b.actions) << where;
  EXPECT_EQ(a.logProbs, b.logProbs) << where;
  EXPECT_EQ(a.advantages, b.advantages) << where;
  EXPECT_EQ(a.returns, b.returns) << where;
}

constexpr std::size_t kRolloutBudget = 150;  // not a multiple of 4
constexpr std::size_t kRolloutSize = 8;

/// Everything a collection consumed.
struct CollectRun {
  std::vector<FlatRollout> rollouts;  ///< every update's input, in order
  bool solved = false;
  std::size_t sims = 0;
  std::size_t simsAtSolve = 0;
  double bestReturn = 0.0;
  double bestValue = 0.0;
  Vector bestSizes;
  pvt::EdaLedger ledger;
  eval::EvalStats stats;
  eval::FailureRecord firstFailure;
  std::size_t memo = 0;
};

struct CollectSetup {
  std::uint64_t envSeed = 17;  ///< policy streams use envSeed + 7
  double spec = 0.95;
  bool faulty = false;     ///< ci_smoke_faulty's fault plan and retries
  std::size_t slice = 0;   ///< 0: one run() to the budget
};

EnvConfig rolloutEnv() {
  EnvConfig env;
  env.episodeLength = 12;
  return env;
}

void configure(eval::EvalEngine& engine, const CollectSetup& c) {
  if (!c.faulty) return;
  sim::FaultPlanConfig plan;
  plan.seed = 2021;
  plan.nonConvergenceRate = 0.30;
  plan.nonFiniteRate = 0.05;
  engine.injectFaults(std::make_shared<const sim::FaultPlan>(plan), "rollout");
  engine.setRetryPolicy(eval::RetryPolicy{/*maxAttempts=*/2});
}

void finish(CollectRun& run, const eval::EvalEngine& engine) {
  run.ledger = engine.ledger();
  run.stats = engine.stats();
  run.firstFailure = engine.firstFailure();
  run.memo = engine.cacheSize();
}

/// The collector, over `prob` (fused: four envs per lane pass).
CollectRun runCollector(const core::SizingProblem& prob,
                        const CollectSetup& c) {
  ParallelRolloutCollector collector(prob, rolloutEnv(), c.envSeed,
                                     c.envSeed + 7);
  configure(collector.engine(), c);
  const std::size_t obsDim = collector.observationDim();
  nn::Mlp policy = makePolicyNet(obsDim, 2, kApH, 16, 71);
  nn::Mlp critic = makeValueNet(obsDim, 16, 72);
  nn::AdamOptimizer policyOpt(7e-4), criticOpt(7e-4);
  const A2cConfig cfg;
  CollectRun run;
  const std::size_t slice = c.slice == 0 ? kRolloutBudget : c.slice;
  for (std::size_t target = slice;; target += slice) {
    collector.run(policy, critic, kRolloutSize, cfg.gamma, cfg.gaeLambda,
                  std::min(target, kRolloutBudget),
                  [&](const FlatRollout& data) {
                    run.rollouts.push_back(data);
                    a2cUpdateBatched(policy, critic, policyOpt, criticOpt,
                                     data, cfg);
                    return true;
                  });
    EXPECT_EQ(collector.engine().lookaheadSize(), 0u);
    if (collector.solved() || target >= kRolloutBudget) break;
  }
  run.solved = collector.solved();
  run.sims = collector.totalSimulations();
  run.simsAtSolve = collector.simsAtFirstSolve();
  run.bestReturn = collector.bestEpisodeReturn();
  run.bestValue = collector.bestValue();
  run.bestSizes = collector.bestSizes();
  finish(run, collector.engine());
  return run;
}

/// The reference: `n` envs on one width-1 engine, stepped one request at a
/// time in env order (a reset when an env has no observation; one onto a
/// spec-meeting point solves, as a step would), updating after each full
/// tick that ends with a full rollout.
CollectRun runReference(const core::SizingProblem& scalar, std::size_t n,
                        const CollectSetup& c) {
  const EnvConfig envCfg = rolloutEnv();
  const auto engine = makeEnvEngine(scalar);
  configure(*engine, c);
  std::vector<SizingEnv> envs;
  std::vector<std::mt19937_64> rngs;
  for (std::size_t e = 0; e < n; ++e) {
    const std::uint64_t rngSeed = c.envSeed + 7;
    envs.emplace_back(scalar, envCfg,
                      e == 0 ? c.envSeed : common::perTaskSeed(c.envSeed, e),
                      *engine);
    rngs.emplace_back(e == 0 ? rngSeed : common::perTaskSeed(rngSeed, e));
  }
  const std::size_t obsDim = envs[0].observationDim();
  nn::Mlp policy = makePolicyNet(obsDim, 2, kApH, 16, 71);
  nn::Mlp critic = makeValueNet(obsDim, 16, 72);
  nn::AdamOptimizer policyOpt(7e-4), criticOpt(7e-4);
  const A2cConfig cfg;
  std::vector<Vector> obs(n);
  std::vector<bool> haveObs(n, false);
  std::vector<double> episodeReturn(n, 0.0);
  std::vector<RolloutBuffer> buffers(n);
  std::size_t transitions = 0;
  CollectRun run;
  run.bestReturn = -1e18;
  run.bestValue = core::kFailedValue;
  while (run.sims < kRolloutBudget && !run.solved) {
    std::size_t e = 0;
    for (; e < n && run.sims < kRolloutBudget && !run.solved; ++e) {
      ++run.sims;
      if (!haveObs[e]) {
        obs[e] = envs[e].reset();
        haveObs[e] = true;
        if (envs[e].currentSolves()) {
          run.solved = true;
          run.simsAtSolve = run.sims;
          run.bestValue = envs[e].currentValue();
          run.bestSizes = envs[e].currentSizes();
        }
        continue;
      }
      const PolicySample ps = samplePolicy(policy, obs[e], 2, kApH, rngs[e]);
      const double v = critic.predict(obs[e])[0];
      const StepResult sr = envs[e].step(ps.actions);
      Transition t;
      t.observation = obs[e];
      t.actions = ps.actions;
      t.reward = sr.reward;
      t.valueEstimate = v;
      t.logProb = ps.logProb;
      t.done = sr.done;
      buffers[e].transitions.push_back(t);
      ++transitions;
      episodeReturn[e] += sr.reward;
      obs[e] = sr.observation;
      if (envs[e].currentValue() > run.bestValue) {
        run.bestValue = envs[e].currentValue();
        run.bestSizes = envs[e].currentSizes();
      }
      if (sr.done) {
        run.bestReturn = std::max(run.bestReturn, episodeReturn[e]);
        episodeReturn[e] = 0.0;
        haveObs[e] = false;
      }
      if (sr.solved) {
        run.solved = true;
        run.simsAtSolve = run.sims;
      }
    }
    if (e < n || run.solved || transitions < kRolloutSize) continue;
    for (std::size_t i = 0; i < n; ++i)
      buffers[i].bootstrapValue = buffers[i].transitions.empty() || !haveObs[i]
                                      ? 0.0
                                      : critic.predict(obs[i])[0];
    run.rollouts.push_back(flattenRollouts(buffers, cfg.gamma, cfg.gaeLambda));
    a2cUpdateBatched(policy, critic, policyOpt, criticOpt,
                     run.rollouts.back(), cfg);
    for (RolloutBuffer& b : buffers) b.clear();
    transitions = 0;
  }
  finish(run, *engine);
  return run;
}

void expectSameCollection(const CollectRun& a, const CollectRun& b,
                          const std::string& where) {
  ASSERT_EQ(a.rollouts.size(), b.rollouts.size()) << where;
  for (std::size_t i = 0; i < a.rollouts.size(); ++i)
    expectFlatBitwiseEqual(a.rollouts[i], b.rollouts[i],
                           where + " rollout " + std::to_string(i));
  EXPECT_EQ(a.solved, b.solved) << where;
  EXPECT_EQ(a.sims, b.sims) << where;
  EXPECT_EQ(a.simsAtSolve, b.simsAtSolve) << where;
  EXPECT_EQ(a.bestReturn, b.bestReturn) << where;
  EXPECT_EQ(a.bestValue, b.bestValue) << where;
  EXPECT_EQ(a.bestSizes, b.bestSizes) << where;
  const auto& la = a.ledger.blocks();
  const auto& lb = b.ledger.blocks();
  ASSERT_EQ(la.size(), lb.size()) << where;
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].cornerIndex, lb[i].cornerIndex) << where << " block " << i;
    EXPECT_EQ(la[i].kind, lb[i].kind) << where << " block " << i;
    EXPECT_EQ(la[i].meetsSpec, lb[i].meetsSpec) << where << " block " << i;
    EXPECT_EQ(la[i].cached, lb[i].cached) << where << " block " << i;
    EXPECT_EQ(la[i].failed, lb[i].failed) << where << " block " << i;
    EXPECT_EQ(la[i].retries, lb[i].retries) << where << " block " << i;
    EXPECT_EQ(la[i].backoff, lb[i].backoff) << where << " block " << i;
  }
  // Every EvalStats counter but attempts, which counts lanes simulated ahead.
  eval::EvalStats sa = countersOf(a.stats), sb = countersOf(b.stats);
  sa.attempts = sb.attempts = 0;
  EXPECT_EQ(sa, sb) << where;
  EXPECT_EQ(a.firstFailure.valid, b.firstFailure.valid) << where;
  EXPECT_EQ(a.firstFailure.request, b.firstFailure.request) << where;
  EXPECT_EQ(a.firstFailure.cls, b.firstFailure.cls) << where;
  EXPECT_EQ(a.firstFailure.attempts, b.firstFailure.attempts) << where;
  EXPECT_EQ(a.memo, b.memo) << where;
}

/// Packing four environments into each lane pass changes nothing a request
/// consumes: at N = 1 and N = 4, clean and faulty, solving (at a tick's last
/// environment with seed 17, at its first with seed 19) or not, whole or
/// sliced mid-tick, the collector matches the one-request-at-a-time
/// reference bit for bit — rollouts, markers, ledger and statistics.
TEST(ParallelRollout, PackedTicksAccountExactlyAsOneRequestAtATime) {
  for (const std::uint64_t envSeed : {17u, 19u}) {
    for (const double spec : {0.95, 0.999}) {  // solves / never solves
      for (const bool faulty : {false, true}) {
        for (const std::size_t slice : {std::size_t{0}, std::size_t{13}}) {
          CollectSetup c;
          c.envSeed = envSeed;
          c.spec = spec;
          c.faulty = faulty;
          c.slice = slice;
          const std::string where =
              "seed " + std::to_string(envSeed) + " spec " +
              std::to_string(spec) + (faulty ? " faulty" : " clean") +
              " slice " + std::to_string(slice);
          const core::SizingProblem scalar = bowlProblem(spec);
          auto calls = std::make_shared<std::atomic<std::size_t>>(0);
          const core::SizingProblem packed = fused(scalar, calls);
          for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
            const CollectRun run = runCollector(n == 1 ? scalar : packed, c);
            const CollectRun ref = runReference(scalar, n, c);
            expectSameCollection(run, ref, where + " N " + std::to_string(n));
            EXPECT_FALSE(run.rollouts.empty()) << where;
          }
          if (faulty) continue;
          // Four envs share lane passes: far fewer passes than simulations.
          *calls = 0;
          const CollectRun run = runCollector(packed, c);
          EXPECT_LT(2 * *calls, run.stats.simulated) << where;
          EXPECT_EQ(run.solved, spec < 0.99) << where;
          // Seed 19 solves at a tick's first environment, after its pass
          // simulated the rest of the tick: those lanes go unused (unless
          // the slice ends at the solving request, which then offers none).
          const std::size_t unused = run.stats.attempts - run.stats.simulated;
          if (envSeed == 19 && run.solved) {
            EXPECT_EQ(run.sims % 4, 1u) << where;
            if (slice == 0) {
              EXPECT_GT(unused, 0u) << where;
            }
          }
          EXPECT_LE(unused, run.solved ? 3u : 0u) << where;
        }
      }
    }
  }
}

/// A reset that lands on a spec-meeting point is a solve: the collector
/// stops at that request with the point as its best, and the environment
/// records the solve, at one environment and at four.
TEST(ParallelRollout, ResetOntoSpecMeetingPointSolves) {
  // Every point that simulates meets a closeness spec of -1 (the bowl's
  // worst closeness is 1 - sqrt(2)); only the failing grid corner does not.
  const core::SizingProblem scalar = bowlProblem(-1.0);
  const EnvConfig envCfg = rolloutEnv();
  {
    const auto engine = makeEnvEngine(scalar);
    SizingEnv env(scalar, envCfg, 17, *engine);
    env.reset();
    ASSERT_GE(env.currentValue(), 0.0) << "seed 17 resets onto a failure";
    EXPECT_EQ(env.simsAtFirstSolve(), 1u);
  }
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("N " + std::to_string(n));
    const core::SizingProblem prob = n == 1 ? scalar : fused(scalar);
    ParallelRolloutCollector collector(prob, envCfg, 17, 24);
    ASSERT_EQ(collector.numEnvs(), n);
    const std::size_t obsDim = collector.observationDim();
    const nn::Mlp policy = makePolicyNet(obsDim, 2, kApH, 16, 71);
    const nn::Mlp critic = makeValueNet(obsDim, 16, 72);
    std::size_t updates = 0;
    collector.run(policy, critic, kRolloutSize, 0.99, 0.95, kRolloutBudget,
                  [&](const FlatRollout&) {
                    ++updates;
                    return true;
                  });
    EXPECT_TRUE(collector.solved());
    EXPECT_EQ(collector.simsAtFirstSolve(), 1u);
    EXPECT_EQ(collector.totalSimulations(), 1u);
    EXPECT_EQ(updates, 0u);
    EXPECT_GE(collector.bestValue(), 0.0);
    EXPECT_EQ(collector.bestSizes().size(), prob.space.dim());
    EXPECT_EQ(collector.engine().lookaheadSize(), 0u);
    ASSERT_EQ(collector.engine().ledger().totalBlocks(), 1u);
    EXPECT_TRUE(collector.engine().ledger().blocks()[0].meetsSpec);
  }
}

TEST(ParallelRollout, EnvStreamsAreIndependent) {
  const auto prob = fused(bowlProblem());
  ParallelRolloutCollector collector(prob, rolloutEnv(), 17, 24);
  ASSERT_EQ(collector.numEnvs(), sim::kSimLanes);
  const std::size_t obsDim = collector.observationDim();
  nn::Mlp policy = makePolicyNet(obsDim, 2, kApH, 24, 71);
  nn::Mlp critic = makeValueNet(obsDim, 24, 72);
  std::vector<FlatRollout> rollouts;
  // Tick 1 resets all four envs; ticks 2 and 3 step each twice, and the
  // 12-request target ends collection at the update after tick 3.
  collector.run(policy, critic, 8, 0.99, 0.95, 12,
                [&](const FlatRollout& data) { rollouts.push_back(data); });
  ASSERT_EQ(rollouts.size(), 1u);
  ASSERT_EQ(rollouts[0].size(), 8u);
  // Different seeds must give different start points / trajectories: rows
  // 0, 2, 4, 6 are each env's first transition.
  const Matrix& o = rollouts[0].observations;
  for (std::size_t e = 0; e + 1 < 4; ++e)
    EXPECT_FALSE(std::equal(o.row(2 * e), o.row(2 * e) + obsDim,
                            o.row(2 * e + 2)))
        << "env " << e;
}

TEST(ParallelRollout, MultiEnvTrainingIsDeterministic) {
  const auto prob = fused(bandProblem());
  PpoConfig cfg;
  cfg.seed = 5;
  cfg.horizon = 32;
  cfg.env.episodeLength = 16;
  expectOutcomesEqual(train(prob, cfg, 400), train(prob, cfg, 400));
}

// ---------- flattening ----------

TEST(FlatRolloutTest, SingleEnvMatchesComputeGaePlusNormalize) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  RolloutBuffer buf;
  for (int i = 0; i < 20; ++i) {
    Transition t;
    t.observation = {d(rng), d(rng)};
    t.actions = {0, 2};
    t.reward = d(rng);
    t.valueEstimate = d(rng);
    t.logProb = d(rng);
    t.done = i == 9;  // one episode boundary mid-buffer
    buf.transitions.push_back(t);
  }
  buf.bootstrapValue = 0.37;

  AdvantageResult ref = computeGae(buf, 0.99, 0.95);
  normalizeAdvantages(ref.advantages);
  const FlatRollout flat = flattenRollouts({buf}, 0.99, 0.95);
  ASSERT_EQ(flat.size(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(flat.advantages[i], ref.advantages[i]);
    EXPECT_EQ(flat.returns[i], ref.returns[i]);
    EXPECT_EQ(flat.logProbs[i], buf.transitions[i].logProb);
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_EQ(flat.observations(i, c), buf.transitions[i].observation[c]);
  }
}

TEST(FlatRolloutTest, ConcatenatesInEnvOrder) {
  RolloutBuffer b0, b1;
  Transition t;
  t.observation = {1.0};
  t.actions = {1};
  t.done = true;
  t.reward = 10.0;
  b0.transitions = {t};
  t.observation = {2.0};
  t.reward = 20.0;
  b1.transitions = {t, t};
  const FlatRollout flat = flattenRollouts({b0, b1}, 0.9, 0.9);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat.observations(0, 0), 1.0);
  EXPECT_EQ(flat.observations(1, 0), 2.0);
  EXPECT_EQ(flat.observations(2, 0), 2.0);
}

}  // namespace
}  // namespace trdse::rl
