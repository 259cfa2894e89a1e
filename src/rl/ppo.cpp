#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "rl/actor_critic.hpp"
#include "rl/checkpoint.hpp"

namespace trdse::rl {

void ppoUpdateBatched(nn::Mlp& policy, nn::Mlp& critic,
                      nn::Optimizer& policyOpt, nn::Optimizer& criticOpt,
                      const FlatRollout& data, const PpoConfig& cfg,
                      std::mt19937_64& rng) {
  const std::size_t n = data.size();
  if (n == 0) return;
  const std::size_t obsDim = data.observations.cols();
  constexpr std::size_t apH = SizingEnv::kActionsPerHead;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Mini-batch gather + distribution-table buffers; capacity persists across
  // mini-batches so the steady-state loop does not allocate. The softmax and
  // log-softmax tables are evaluated once per mini-batch and shared by the
  // log-prob, policy-gradient and entropy-gradient helpers.
  linalg::Matrix obsMb;
  std::vector<std::vector<std::size_t>> actsMb;
  linalg::Matrix sm;
  linalg::Matrix lsm;
  linalg::Matrix g;
  linalg::Matrix eg;
  linalg::Matrix gv;
  linalg::Vector newLps;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t start = 0; start < order.size(); start += cfg.minibatch) {
      const std::size_t end = std::min(order.size(), start + cfg.minibatch);
      const std::size_t b = end - start;
      const double invB = 1.0 / static_cast<double>(b);

      obsMb.resize(b, obsDim);
      actsMb.resize(b);
      for (std::size_t r = 0; r < b; ++r) {
        const std::size_t i = order[start + r];
        std::copy(data.observations.row(i), data.observations.row(i) + obsDim,
                  obsMb.row(r));
        actsMb[r] = data.actions[i];
      }

      policy.zeroGrad();
      critic.zeroGrad();
      const linalg::Matrix& logits = policy.forwardBatch(obsMb);
      nn::softmaxSegments(logits, apH, sm);
      nn::logSoftmaxSegments(logits, apH, lsm);
      jointLogProbRowsFromTable(lsm, actsMb, apH, newLps);
      jointLogProbGradRowsFromTable(sm, actsMb, apH, g);
      jointEntropyGradRowsFromTable(lsm, apH, eg);
      for (std::size_t r = 0; r < b; ++r) {
        const std::size_t i = order[start + r];
        const double advantage = data.advantages[i];
        const double ratio = std::exp(newLps[r] - data.logProbs[i]);
        const bool clipped =
            (advantage > 0.0 && ratio > 1.0 + cfg.clipRatio) ||
            (advantage < 0.0 && ratio < 1.0 - cfg.clipRatio);
        // ratio * advantage is folded into one factor first, matching the
        // per-sample reference's association order exactly.
        const double scale = clipped ? 0.0 : ratio * advantage;
        double* gr = g.row(r);
        const double* er = eg.row(r);
        for (std::size_t j = 0; j < g.cols(); ++j) {
          const double surr = clipped ? 0.0 : gr[j] * scale;
          gr[j] = -(surr + cfg.entropyCoeff * er[j]) * invB;
        }
      }
      policy.backwardBatch(g);

      const linalg::Matrix& vp = critic.forwardBatch(obsMb);
      gv.resize(b, 1);
      for (std::size_t r = 0; r < b; ++r)
        gv(r, 0) = 2.0 * (vp(r, 0) - data.returns[order[start + r]]) * invB;
      critic.backwardBatch(gv);

      nn::clipGradNorm(policy, cfg.maxGradNorm);
      nn::clipGradNorm(critic, cfg.maxGradNorm);
      policyOpt.step(policy);
      criticOpt.step(critic);
    }
  }
}

RlTrainOutcome trainPpo(const core::SizingProblem& problem, const PpoConfig& cfg,
                        std::size_t maxSimulations) {
  ParallelRolloutCollector collector(problem, cfg.env, cfg.seed,
                                     cfg.seed + /*rngSalt=*/19);
  std::mt19937_64 shuffleRng(cfg.seed + 53);

  nn::Mlp policy = makePolicyNet(collector.observationDim(),
                                 collector.actionHeads(),
                                 SizingEnv::kActionsPerHead, cfg.hidden,
                                 cfg.seed + 23);
  nn::Mlp critic =
      makeValueNet(collector.observationDim(), cfg.hidden, cfg.seed + 29);
  nn::AdamOptimizer policyOpt(cfg.learningRate);
  nn::AdamOptimizer criticOpt(cfg.valueLearningRate);

  std::size_t updates = 0;
  std::ostringstream hyper;
  hyper.precision(17);
  // " batched=1" is a constant: checkpoints written when the update path
  // was configurable carry it, and their fingerprints must keep matching.
  hyper << "ppo horizon=" << cfg.horizon << " epochs=" << cfg.epochs
        << " minibatch=" << cfg.minibatch << " gamma=" << cfg.gamma
        << " gae=" << cfg.gaeLambda << " clipRatio=" << cfg.clipRatio
        << " lr=" << cfg.learningRate << " vlr=" << cfg.valueLearningRate
        << " ent=" << cfg.entropyCoeff << " clip=" << cfg.maxGradNorm
        << " hidden=" << cfg.hidden << " batched=1";
  TrainerState snapshot;
  snapshot.algo = "ppo";
  snapshot.fingerprint =
      trainerFingerprint(problem, cfg.env, cfg.seed, hyper.str());
  snapshot.policy = &policy;
  snapshot.critic = &critic;
  snapshot.policyOpt = &policyOpt;
  snapshot.criticOpt = &criticOpt;
  snapshot.collector = &collector;
  snapshot.shuffleRng = &shuffleRng;
  snapshot.updates = &updates;
  return runTrainer(cfg, cfg.horizon, snapshot, maxSimulations,
                    [&](const FlatRollout& data) {
                      ppoUpdateBatched(policy, critic, policyOpt, criticOpt,
                                       data, cfg, shuffleRng);
                    });
}

}  // namespace trdse::rl
