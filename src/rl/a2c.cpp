#include "rl/a2c.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "rl/checkpoint.hpp"
#include "rl/vec_env.hpp"

namespace trdse::rl {

void a2cUpdateBatched(nn::Mlp& policy, nn::Mlp& critic,
                      nn::Optimizer& policyOpt, nn::Optimizer& criticOpt,
                      const FlatRollout& data, const A2cConfig& cfg) {
  const std::size_t n = data.size();
  if (n == 0) return;
  constexpr std::size_t apH = SizingEnv::kActionsPerHead;
  policy.zeroGrad();
  critic.zeroGrad();
  const double invN = 1.0 / static_cast<double>(n);

  const linalg::Matrix& logits = policy.forwardBatch(data.observations);
  linalg::Matrix sm;
  linalg::Matrix lsm;
  nn::softmaxSegments(logits, apH, sm);
  nn::logSoftmaxSegments(logits, apH, lsm);
  linalg::Matrix g;
  jointLogProbGradRowsFromTable(sm, data.actions, apH, g);
  linalg::Matrix eg;
  jointEntropyGradRowsFromTable(lsm, apH, eg);
  for (std::size_t r = 0; r < n; ++r) {
    double* gr = g.row(r);
    const double* er = eg.row(r);
    for (std::size_t k = 0; k < g.cols(); ++k)
      gr[k] = -(data.advantages[r] * gr[k] + cfg.entropyCoeff * er[k]) * invN;
  }
  policy.backwardBatch(g);

  const linalg::Matrix& vp = critic.forwardBatch(data.observations);
  linalg::Matrix gv(n, 1);
  for (std::size_t r = 0; r < n; ++r)
    gv(r, 0) = 2.0 * (vp(r, 0) - data.returns[r]) * invN;
  critic.backwardBatch(gv);

  nn::clipGradNorm(policy, cfg.maxGradNorm);
  nn::clipGradNorm(critic, cfg.maxGradNorm);
  policyOpt.step(policy);
  criticOpt.step(critic);
}

RlTrainOutcome trainA2c(const core::SizingProblem& problem, const A2cConfig& cfg,
                        std::size_t maxSimulations) {
  if (cfg.checkpointEvery != 0 && cfg.checkpointPath.empty())
    throw std::invalid_argument(
        "A2cConfig::checkpointEvery is set but checkpointPath is empty");
  RlTrainOutcome out;
  ParallelRolloutCollector collector(problem, cfg.env,
                                     std::max<std::size_t>(1, cfg.numEnvs),
                                     cfg.rolloutThreads, cfg.seed,
                                     /*rngSalt=*/7,
                                     /*initialReset=*/cfg.resumeFrom.empty());
  nn::Mlp policy = makePolicyNet(collector.observationDim(),
                                 collector.actionHeads(),
                                 SizingEnv::kActionsPerHead, cfg.hidden,
                                 cfg.seed + 11);
  nn::Mlp critic =
      makeValueNet(collector.observationDim(), cfg.hidden, cfg.seed + 13);
  nn::AdamOptimizer policyOpt(cfg.learningRate);
  nn::AdamOptimizer criticOpt(cfg.valueLearningRate);

  out.bestEpisodeReturn = -1e18;
  std::size_t updates = 0;
  std::ostringstream hyper;
  hyper.precision(17);
  // " batched=1" is a constant: checkpoints written when the update path
  // was configurable carry it, and their fingerprints must keep matching.
  hyper << "a2c nSteps=" << cfg.nSteps << " gamma=" << cfg.gamma
        << " gae=" << cfg.gaeLambda << " lr=" << cfg.learningRate
        << " vlr=" << cfg.valueLearningRate << " ent=" << cfg.entropyCoeff
        << " clip=" << cfg.maxGradNorm << " hidden=" << cfg.hidden
        << " batched=1";
  TrainerState snapshot;
  snapshot.algo = "a2c";
  snapshot.fingerprint =
      trainerFingerprint(problem, cfg.env, cfg.seed, hyper.str());
  snapshot.policy = &policy;
  snapshot.critic = &critic;
  snapshot.policyOpt = &policyOpt;
  snapshot.criticOpt = &criticOpt;
  snapshot.collector = &collector;
  snapshot.updates = &updates;
  snapshot.bestEpisodeReturn = &out.bestEpisodeReturn;
  if (!cfg.resumeFrom.empty())
    restoreTrainerCheckpoint(cfg.resumeFrom, snapshot);

  std::vector<RolloutBuffer> buffers;
  while ((cfg.maxUpdates == 0 || updates < cfg.maxUpdates) &&
         collector.totalSimulations() < maxSimulations && !collector.solved()) {
    const CollectStats stats =
        collector.collect(policy, critic, cfg.nSteps, maxSimulations, buffers);
    out.bestEpisodeReturn = std::max(out.bestEpisodeReturn,
                                     stats.bestEpisodeReturn);
    if (stats.anySolved || stats.steps == 0) break;

    const FlatRollout data =
        flattenRollouts(buffers, cfg.gamma, cfg.gaeLambda);
    a2cUpdateBatched(policy, critic, policyOpt, criticOpt, data, cfg);
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
