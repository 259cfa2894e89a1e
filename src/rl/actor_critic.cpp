#include "rl/actor_critic.hpp"

#include <cassert>
#include <cmath>

namespace trdse::rl {

linalg::Vector headLogits(const linalg::Vector& logits, std::size_t head,
                          std::size_t actionsPerHead) {
  linalg::Vector h(actionsPerHead);
  for (std::size_t a = 0; a < actionsPerHead; ++a)
    h[a] = logits[head * actionsPerHead + a];
  return h;
}

PolicySample samplePolicy(const nn::Mlp& policy, const linalg::Vector& obs,
                          std::size_t heads, std::size_t actionsPerHead,
                          std::mt19937_64& rng) {
  const linalg::Vector logits = policy.predict(obs);
  assert(logits.size() == heads * actionsPerHead);
  PolicySample s;
  s.actions.resize(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    const linalg::Vector hl = headLogits(logits, h, actionsPerHead);
    s.actions[h] = nn::sampleCategorical(hl, rng);
    s.logProb += nn::logSoftmax(hl)[s.actions[h]];
    s.entropy += nn::categoricalEntropy(hl);
  }
  return s;
}

double jointLogProb(const linalg::Vector& logits,
                    const std::vector<std::size_t>& actions,
                    std::size_t actionsPerHead) {
  double lp = 0.0;
  for (std::size_t h = 0; h < actions.size(); ++h)
    lp += nn::logSoftmax(headLogits(logits, h, actionsPerHead))[actions[h]];
  return lp;
}

double jointEntropy(const linalg::Vector& logits, std::size_t actionsPerHead) {
  const std::size_t heads = logits.size() / actionsPerHead;
  double e = 0.0;
  for (std::size_t h = 0; h < heads; ++h)
    e += nn::categoricalEntropy(headLogits(logits, h, actionsPerHead));
  return e;
}

linalg::Vector jointLogProbGrad(const linalg::Vector& logits,
                                const std::vector<std::size_t>& actions,
                                std::size_t actionsPerHead) {
  linalg::Vector g(logits.size(), 0.0);
  for (std::size_t h = 0; h < actions.size(); ++h) {
    const linalg::Vector hg =
        nn::logProbGrad(headLogits(logits, h, actionsPerHead), actions[h]);
    for (std::size_t a = 0; a < actionsPerHead; ++a)
      g[h * actionsPerHead + a] = hg[a];
  }
  return g;
}

linalg::Vector jointEntropyGrad(const linalg::Vector& logits,
                                std::size_t actionsPerHead) {
  // dH/dlogit_i = -p_i * (log p_i + H) for each head independently.
  const std::size_t heads = logits.size() / actionsPerHead;
  linalg::Vector g(logits.size(), 0.0);
  for (std::size_t h = 0; h < heads; ++h) {
    const linalg::Vector hl = headLogits(logits, h, actionsPerHead);
    const linalg::Vector lp = nn::logSoftmax(hl);
    double ent = 0.0;
    for (double v : lp) ent -= std::exp(v) * v;
    for (std::size_t a = 0; a < actionsPerHead; ++a) {
      const double p = std::exp(lp[a]);
      g[h * actionsPerHead + a] = -p * (lp[a] + ent);
    }
  }
  return g;
}

double jointKl(const linalg::Vector& oldLogits, const linalg::Vector& newLogits,
               std::size_t actionsPerHead) {
  assert(oldLogits.size() == newLogits.size());
  const std::size_t heads = oldLogits.size() / actionsPerHead;
  double kl = 0.0;
  for (std::size_t h = 0; h < heads; ++h)
    kl += nn::categoricalKl(headLogits(oldLogits, h, actionsPerHead),
                            headLogits(newLogits, h, actionsPerHead));
  return kl;
}

linalg::Vector jointKlGrad(const linalg::Vector& oldLogits,
                           const linalg::Vector& newLogits,
                           std::size_t actionsPerHead) {
  assert(oldLogits.size() == newLogits.size());
  const std::size_t heads = oldLogits.size() / actionsPerHead;
  linalg::Vector g(newLogits.size(), 0.0);
  for (std::size_t h = 0; h < heads; ++h) {
    const linalg::Vector pNew =
        nn::softmax(headLogits(newLogits, h, actionsPerHead));
    const linalg::Vector pOld =
        nn::softmax(headLogits(oldLogits, h, actionsPerHead));
    for (std::size_t a = 0; a < actionsPerHead; ++a)
      g[h * actionsPerHead + a] = pNew[a] - pOld[a];
  }
  return g;
}

void jointLogProbRowsFromTable(
    const linalg::Matrix& logSoftmaxTable,
    const std::vector<std::vector<std::size_t>>& actions,
    std::size_t actionsPerHead, linalg::Vector& out) {
  assert(actions.size() == logSoftmaxTable.rows());
  out.assign(logSoftmaxTable.rows(), 0.0);
  for (std::size_t r = 0; r < logSoftmaxTable.rows(); ++r) {
    const double* lpr = logSoftmaxTable.row(r);
    double s = 0.0;
    for (std::size_t h = 0; h < actions[r].size(); ++h)
      s += lpr[h * actionsPerHead + actions[r][h]];
    out[r] = s;
  }
}

void jointLogProbGradRowsFromTable(
    const linalg::Matrix& softmaxTable,
    const std::vector<std::vector<std::size_t>>& actions,
    std::size_t actionsPerHead, linalg::Matrix& out) {
  assert(actions.size() == softmaxTable.rows());
  out.resize(softmaxTable.rows(), softmaxTable.cols());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const double* p = softmaxTable.row(r);
    double* g = out.row(r);
    for (std::size_t i = 0; i < out.cols(); ++i) g[i] = -p[i];
    for (std::size_t h = 0; h < actions[r].size(); ++h)
      g[h * actionsPerHead + actions[r][h]] += 1.0;
  }
}

void jointEntropyGradRowsFromTable(const linalg::Matrix& logSoftmaxTable,
                                   std::size_t actionsPerHead,
                                   linalg::Matrix& out) {
  out.resize(logSoftmaxTable.rows(), logSoftmaxTable.cols());
  const std::size_t heads = logSoftmaxTable.cols() / actionsPerHead;
  // exp(lp) appears in both the entropy sum and the gradient; computing it
  // once per element is bitwise-safe (same input -> same exp value).
  std::vector<double> p(actionsPerHead);
  for (std::size_t r = 0; r < logSoftmaxTable.rows(); ++r) {
    const double* lpr = logSoftmaxTable.row(r);
    double* g = out.row(r);
    for (std::size_t h = 0; h < heads; ++h) {
      const double* hl = lpr + h * actionsPerHead;
      double ent = 0.0;
      for (std::size_t a = 0; a < actionsPerHead; ++a) {
        p[a] = std::exp(hl[a]);
        ent -= p[a] * hl[a];
      }
      for (std::size_t a = 0; a < actionsPerHead; ++a)
        g[h * actionsPerHead + a] = -p[a] * (hl[a] + ent);
    }
  }
}

double sumJointKlRowsFromTables(const linalg::Matrix& logSoftmaxOld,
                                const linalg::Matrix& logSoftmaxNew,
                                std::size_t actionsPerHead) {
  assert(logSoftmaxOld.rows() == logSoftmaxNew.rows() &&
         logSoftmaxOld.cols() == logSoftmaxNew.cols());
  const std::size_t heads = logSoftmaxOld.cols() / actionsPerHead;
  double kl = 0.0;
  for (std::size_t r = 0; r < logSoftmaxOld.rows(); ++r) {
    const double* lpr = logSoftmaxOld.row(r);
    const double* lqr = logSoftmaxNew.row(r);
    // Per-head subtotals first, then head-ascending accumulation — the exact
    // association order of jointKl over categoricalKl, so sums stay bitwise
    // identical to the per-sample path.
    double rowKl = 0.0;
    for (std::size_t h = 0; h < heads; ++h) {
      double headKl = 0.0;
      for (std::size_t a = 0; a < actionsPerHead; ++a) {
        const std::size_t i = h * actionsPerHead + a;
        headKl += std::exp(lpr[i]) * (lpr[i] - lqr[i]);
      }
      rowKl += headKl;
    }
    kl += rowKl;
  }
  return kl;
}

void jointKlGradRowsFromTables(const linalg::Matrix& softmaxOld,
                               const linalg::Matrix& softmaxNew,
                               linalg::Matrix& out) {
  assert(softmaxOld.rows() == softmaxNew.rows() &&
         softmaxOld.cols() == softmaxNew.cols());
  out.resize(softmaxNew.rows(), softmaxNew.cols());
  for (std::size_t i = 0; i < out.size(); ++i)
    out.data()[i] = softmaxNew.data()[i] - softmaxOld.data()[i];
}

nn::Mlp makePolicyNet(std::size_t obsDim, std::size_t heads,
                      std::size_t actionsPerHead, std::size_t hidden,
                      std::uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.layerSizes = {obsDim, hidden, hidden, heads * actionsPerHead};
  cfg.hidden = nn::Activation::kTanh;
  cfg.output = nn::Activation::kIdentity;
  return nn::Mlp(cfg, seed);
}

nn::Mlp makeValueNet(std::size_t obsDim, std::size_t hidden, std::uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.layerSizes = {obsDim, hidden, hidden, 1};
  cfg.hidden = nn::Activation::kTanh;
  cfg.output = nn::Activation::kIdentity;
  return nn::Mlp(cfg, seed);
}

}  // namespace trdse::rl
