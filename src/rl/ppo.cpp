#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "rl/actor_critic.hpp"

namespace trdse::rl {

void ppoUpdateBatched(nn::Mlp& policy, nn::Mlp& critic,
                      nn::AdamOptimizer& policyOpt,
                      nn::AdamOptimizer& criticOpt,
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

}  // namespace trdse::rl
