#include "rl/trpo.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "rl/actor_critic.hpp"
#include "rl/checkpoint.hpp"
#include "rl/vec_env.hpp"

namespace trdse::rl {

namespace {

constexpr std::size_t kApH = SizingEnv::kActionsPerHead;

/// Scratch for the batched TRPO passes. The softmax / log-softmax tables of
/// the (fixed) old policy are evaluated once per update and reused by every
/// Fisher-vector product and line-search step; the per-call buffers persist
/// across the CG loop, so the steady-state update does not allocate.
struct TrpoBatchScratch {
  linalg::Matrix oldSm;   // softmax table of the old policy
  linalg::Matrix oldLsm;  // log-softmax table of the old policy
  linalg::Matrix logits;  // predictBatch output
  nn::Mlp::BatchWorkspace ws;
  linalg::Matrix sm;
  linalg::Matrix lsm;
  linalg::Matrix g;
  linalg::Vector lps;
};

linalg::Vector surrogateGradBatched(nn::Mlp& policy, const FlatRollout& data,
                                    TrpoBatchScratch& s) {
  policy.zeroGrad();
  const double invN = 1.0 / static_cast<double>(data.size());
  const linalg::Matrix& logits = policy.forwardBatch(data.observations);
  nn::softmaxSegments(logits, kApH, s.sm);
  jointLogProbGradRowsFromTable(s.sm, data.actions, kApH, s.g);
  for (std::size_t r = 0; r < s.g.rows(); ++r) {
    const double scale = data.advantages[r] * invN;
    double* gr = s.g.row(r);
    for (std::size_t j = 0; j < s.g.cols(); ++j) gr[j] *= scale;
  }
  policy.backwardBatch(s.g);
  return policy.getGradients();
}

linalg::Vector klGradBatched(nn::Mlp& policy, const FlatRollout& data,
                             TrpoBatchScratch& s) {
  policy.zeroGrad();
  const double invN = 1.0 / static_cast<double>(data.size());
  const linalg::Matrix& logits = policy.forwardBatch(data.observations);
  nn::softmaxSegments(logits, kApH, s.sm);
  jointKlGradRowsFromTables(s.oldSm, s.sm, s.g);
  for (std::size_t i = 0; i < s.g.size(); ++i) s.g.data()[i] *= invN;
  policy.backwardBatch(s.g);
  return policy.getGradients();
}

/// Mean KL against the old policy and surrogate value in one batched
/// forward pass (both derive from the same policy, so sharing the pass is
/// bitwise-safe).
std::pair<double, double> klAndSurrogateBatched(const nn::Mlp& policy,
                                                const FlatRollout& data,
                                                TrpoBatchScratch& s) {
  policy.predictBatch(data.observations, s.logits, s.ws);
  nn::logSoftmaxSegments(s.logits, kApH, s.lsm);
  const double kl = sumJointKlRowsFromTables(s.oldLsm, s.lsm, kApH) /
                    static_cast<double>(data.size());
  jointLogProbRowsFromTable(s.lsm, data.actions, kApH, s.lps);
  double surr = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i)
    surr += std::exp(s.lps[i] - data.logProbs[i]) * data.advantages[i];
  surr /= static_cast<double>(data.size());
  return {kl, surr};
}

void criticEpochBatched(nn::Mlp& critic, nn::Optimizer& criticOpt,
                        const FlatRollout& data) {
  critic.zeroGrad();
  const double invN = 1.0 / static_cast<double>(data.size());
  const linalg::Matrix& vp = critic.forwardBatch(data.observations);
  linalg::Matrix gv(data.size(), 1);
  for (std::size_t r = 0; r < data.size(); ++r)
    gv(r, 0) = 2.0 * (vp(r, 0) - data.returns[r]) * invN;
  critic.backwardBatch(gv);
  criticOpt.step(critic);
}

}  // namespace

bool trpoUpdate(nn::Mlp& policy, nn::Mlp& critic, nn::Optimizer& criticOpt,
                const FlatRollout& data, const TrpoConfig& cfg) {
  if (data.size() == 0) return false;

  // Snapshot the old policy's distribution tables for KL and ratios.
  TrpoBatchScratch scratch;
  const linalg::Matrix oldLogits = policy.predictBatch(data.observations);
  nn::softmaxSegments(oldLogits, kApH, scratch.oldSm);
  nn::logSoftmaxSegments(oldLogits, kApH, scratch.oldLsm);

  const linalg::Vector g = surrogateGradBatched(policy, data, scratch);
  const double gNorm = linalg::norm2(g);
  if (gNorm < 1e-10) return false;

  // Fisher-vector product via finite difference of the KL gradient around
  // theta_old (where grad KL == 0). Each product is one
  // forwardBatch/backwardBatch pass over the whole rollout — the CG solve is
  // where TRPO's update time lives.
  const linalg::Vector theta0 = policy.getParameters();
  auto fvp = [&](const linalg::Vector& v) {
    constexpr double kEps = 1e-5;
    const double vNorm = linalg::norm2(v);
    if (vNorm < 1e-12) return linalg::scaled(v, cfg.cgDamping);
    policy.setParameters(theta0);
    policy.addToParameters(v, kEps / vNorm);
    linalg::Vector gk = klGradBatched(policy, data, scratch);
    policy.setParameters(theta0);
    for (double& x : gk) x *= vNorm / kEps;
    linalg::axpy(cfg.cgDamping, v, gk);
    return gk;
  };

  // Conjugate gradients: solve F x = g.
  linalg::Vector x(g.size(), 0.0);
  linalg::Vector r = g;
  linalg::Vector p = g;
  double rsOld = linalg::dot(r, r);
  for (std::size_t it = 0; it < cfg.cgIterations && rsOld > 1e-12; ++it) {
    const linalg::Vector fp = fvp(p);
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

  // Backtracking line search on the true surrogate + KL constraint.
  const double surrogate0 = klAndSurrogateBatched(policy, data, scratch).second;
  double frac = 1.0;
  bool accepted = false;
  for (std::size_t ls = 0; ls < cfg.lineSearchSteps; ++ls, frac *= 0.5) {
    policy.setParameters(theta0);
    policy.addToParameters(x, stepScale * frac);
    const auto [kl, surr] = klAndSurrogateBatched(policy, data, scratch);
    if (kl <= cfg.maxKl * 1.5 && surr > surrogate0) {
      accepted = true;
      break;
    }
  }
  if (!accepted) policy.setParameters(theta0);

  // Critic regression on the GAE returns.
  for (std::size_t e = 0; e < cfg.valueEpochs; ++e)
    criticEpochBatched(critic, criticOpt, data);
  return accepted;
}

RlTrainOutcome trainTrpo(const core::SizingProblem& problem,
                         const TrpoConfig& cfg, std::size_t maxSimulations) {
  if (cfg.checkpointEvery != 0 && cfg.checkpointPath.empty())
    throw std::invalid_argument(
        "TrpoConfig::checkpointEvery is set but checkpointPath is empty");
  RlTrainOutcome out;
  ParallelRolloutCollector collector(problem, cfg.env,
                                     std::max<std::size_t>(1, cfg.numEnvs),
                                     cfg.rolloutThreads, cfg.seed,
                                     /*rngSalt=*/37,
                                     /*initialReset=*/cfg.resumeFrom.empty());
  nn::Mlp policy = makePolicyNet(collector.observationDim(),
                                 collector.actionHeads(), kApH, cfg.hidden,
                                 cfg.seed + 41);
  nn::Mlp critic =
      makeValueNet(collector.observationDim(), cfg.hidden, cfg.seed + 43);
  nn::AdamOptimizer criticOpt(cfg.valueLearningRate);

  out.bestEpisodeReturn = -1e18;
  std::size_t updates = 0;
  std::ostringstream hyper;
  hyper.precision(17);
  // " batched=1" is a constant: checkpoints written when the update path
  // was configurable carry it, and their fingerprints must keep matching.
  hyper << "trpo horizon=" << cfg.horizon << " gamma=" << cfg.gamma
        << " gae=" << cfg.gaeLambda << " maxKl=" << cfg.maxKl
        << " damping=" << cfg.cgDamping << " cgIters=" << cfg.cgIterations
        << " lineSearch=" << cfg.lineSearchSteps
        << " vlr=" << cfg.valueLearningRate
        << " valueEpochs=" << cfg.valueEpochs << " hidden=" << cfg.hidden
        << " batched=1";
  TrainerState snapshot;
  snapshot.algo = "trpo";
  snapshot.fingerprint =
      trainerFingerprint(problem, cfg.env, cfg.seed, hyper.str());
  snapshot.policy = &policy;
  snapshot.critic = &critic;
  snapshot.criticOpt = &criticOpt;
  snapshot.collector = &collector;
  snapshot.updates = &updates;
  snapshot.bestEpisodeReturn = &out.bestEpisodeReturn;
  if (!cfg.resumeFrom.empty())
    restoreTrainerCheckpoint(cfg.resumeFrom, snapshot);

  std::vector<RolloutBuffer> buffers;
  while ((cfg.maxUpdates == 0 || updates < cfg.maxUpdates) &&
         collector.totalSimulations() < maxSimulations && !collector.solved()) {
    const CollectStats stats = collector.collect(policy, critic, cfg.horizon,
                                                 maxSimulations, buffers);
    out.bestEpisodeReturn = std::max(out.bestEpisodeReturn,
                                     stats.bestEpisodeReturn);
    if (stats.anySolved || stats.steps == 0) break;

    const FlatRollout data =
        flattenRollouts(buffers, cfg.gamma, cfg.gaeLambda);
    trpoUpdate(policy, critic, criticOpt, data, cfg);
    ++updates;
    if (cfg.checkpointEvery != 0 && !cfg.checkpointPath.empty() &&
        updates % cfg.checkpointEvery == 0)
      saveTrainerCheckpoint(cfg.checkpointPath, snapshot);
  }

  out.totalSimulations = collector.totalSimulations();
  out.solved = collector.solved();
  out.simulationsToSolve =
      out.solved ? collector.simsAtFirstSolve() : collector.totalSimulations();
  return out;
}

}  // namespace trdse::rl
