// Parity and determinism tests for the batched multi-env RL training engine:
// the segment softmax kernels, the row-batched joint log-prob/entropy/KL
// helpers, the batched A2C/PPO/TRPO updates against test-local per-sample
// references (asserted *bitwise* with EXPECT_EQ, not within a tolerance),
// and thread-count invariance of parallel rollout collection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "nn/distribution.hpp"
#include "rl/a2c.hpp"
#include "rl/actor_critic.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/trpo.hpp"
#include "rl/vec_env.hpp"

namespace trdse::rl {
namespace {

using linalg::Matrix;
using linalg::Vector;

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
                        nn::Optimizer& policyOpt, nn::Optimizer& criticOpt,
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
                        nn::Optimizer& policyOpt, nn::Optimizer& criticOpt,
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
                         nn::Optimizer& criticOpt, const FlatRollout& data,
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

core::SizingProblem bowlProblem() {
  core::SizingProblem p;
  p.name = "bowl";
  p.space = core::DesignSpace({{"x", 0.0, 1.0, 33, false},
                               {"y", 0.0, 1.0, 33, false}});
  p.measurementNames = {"closeness"};
  p.specs = {{"closeness", core::SpecKind::kAtLeast, 0.95}};
  p.corners = {{sim::ProcessCorner::kTT, 1.0, 27.0}};
  p.evaluate = [](const Vector& v, const sim::PvtCorner&) {
    core::EvalResult r;
    r.ok = true;
    const double dx = v[0] - 0.3;
    const double dy = v[1] - 0.7;
    r.measurements = {1.0 - std::sqrt(dx * dx + dy * dy)};
    return r;
  };
  return p;
}

void expectBuffersBitwiseEqual(const std::vector<RolloutBuffer>& a,
                               const std::vector<RolloutBuffer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].size(), b[e].size()) << "env " << e;
    EXPECT_EQ(a[e].bootstrapValue, b[e].bootstrapValue);
    for (std::size_t i = 0; i < a[e].size(); ++i) {
      const Transition& ta = a[e].transitions[i];
      const Transition& tb = b[e].transitions[i];
      EXPECT_EQ(ta.observation, tb.observation);
      EXPECT_EQ(ta.actions, tb.actions);
      EXPECT_EQ(ta.reward, tb.reward);
      EXPECT_EQ(ta.valueEstimate, tb.valueEstimate);
      EXPECT_EQ(ta.logProb, tb.logProb);
      EXPECT_EQ(ta.done, tb.done);
    }
  }
}

/// The tentpole determinism guarantee: rollout collection fans N envs across
/// the pool, but the merged trajectories are identical for every thread
/// count (per-env RNG streams + env-order merge).
TEST(ParallelRollout, ThreadCountDoesNotChangeTrajectories) {
  const auto prob = bowlProblem();
  EnvConfig envCfg;
  envCfg.episodeLength = 12;
  const std::size_t numEnvs = 4;

  const std::size_t obsDim = 2 + 2 * 1;
  nn::Mlp policy = makePolicyNet(obsDim, 2, kApH, 24, 71);
  nn::Mlp critic = makeValueNet(obsDim, 24, 72);

  std::vector<RolloutBuffer> serial, pooled;
  std::size_t simsSerial = 0, simsPooled = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ParallelRolloutCollector collector(prob, envCfg, numEnvs, threads,
                                       /*seed=*/17, /*rngSalt=*/7);
    auto& buffers = threads == 1 ? serial : pooled;
    for (int round = 0; round < 3; ++round)
      collector.collect(policy, critic, 24, 100000, buffers);
    (threads == 1 ? simsSerial : simsPooled) = collector.totalSimulations();
  }
  EXPECT_EQ(simsSerial, simsPooled);
  expectBuffersBitwiseEqual(serial, pooled);
}

TEST(ParallelRollout, EnvStreamsAreIndependent) {
  const auto prob = bowlProblem();
  EnvConfig envCfg;
  envCfg.episodeLength = 12;
  const std::size_t obsDim = 2 + 2 * 1;
  nn::Mlp policy = makePolicyNet(obsDim, 2, kApH, 24, 71);
  nn::Mlp critic = makeValueNet(obsDim, 24, 72);

  ParallelRolloutCollector collector(prob, envCfg, 3, 1, 17, 7);
  std::vector<RolloutBuffer> buffers;
  collector.collect(policy, critic, 16, 100000, buffers);
  ASSERT_EQ(buffers.size(), 3u);
  // Different seeds must give different start points / trajectories.
  EXPECT_NE(buffers[0].transitions.front().observation,
            buffers[1].transitions.front().observation);
  EXPECT_NE(buffers[1].transitions.front().observation,
            buffers[2].transitions.front().observation);
}

TEST(ParallelRollout, MultiEnvTrainingIsDeterministic) {
  const auto prob = bandProblem();
  PpoConfig cfg;
  cfg.seed = 5;
  cfg.horizon = 32;
  cfg.env.episodeLength = 16;
  cfg.numEnvs = 3;
  cfg.rolloutThreads = 2;
  expectOutcomesEqual(trainPpo(prob, cfg, 400), trainPpo(prob, cfg, 400));
}

TEST(ParallelRollout, MultiEnvOutcomeIndependentOfThreadCount) {
  const auto prob = bandProblem();
  A2cConfig a, b;
  a.seed = b.seed = 9;
  a.env.episodeLength = b.env.episodeLength = 16;
  a.numEnvs = b.numEnvs = 3;
  a.rolloutThreads = 1;
  b.rolloutThreads = 4;
  expectOutcomesEqual(trainA2c(prob, a, 400), trainA2c(prob, b, 400));
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
