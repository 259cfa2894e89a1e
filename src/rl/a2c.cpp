#include "rl/a2c.hpp"

namespace trdse::rl {

void a2cUpdateBatched(nn::Mlp& policy, nn::Mlp& critic,
                      nn::AdamOptimizer& policyOpt,
                      nn::AdamOptimizer& criticOpt,
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

}  // namespace trdse::rl
