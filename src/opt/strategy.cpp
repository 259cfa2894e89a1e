#include "opt/strategy.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/parse_util.hpp"
#include "core/pvt_search.hpp"
#include "opt/random_search.hpp"
#include "opt/tree_bayes_opt.hpp"
#include "rl/rl_strategy.hpp"

namespace trdse::opt {

std::string Strategy::saveCheckpointBlob() const {
  throw std::logic_error("strategy \"" + std::string(name()) +
                         "\" does not support checkpointing");
}

void Strategy::restoreCheckpointBlob(const std::string&, const std::string&) {
  throw std::logic_error("strategy \"" + std::string(name()) +
                         "\" does not support checkpointing");
}

namespace {

// ---- Option-map parsing -------------------------------------------------

using Options = std::map<std::string, std::string>;

std::uint64_t parseU64(const std::string& key, const std::string& value) {
  return common::parseU64("strategy option \"" + key + "\"", value);
}

double parseF64(const std::string& key, const std::string& value) {
  return common::parseF64("strategy option \"" + key + "\"", value);
}

/// parseU64 restricted to counts >= 1.
std::uint64_t parseCount(const std::string& key, const std::string& value) {
  const std::uint64_t v = parseU64(key, value);
  if (v == 0)
    throw std::invalid_argument("strategy option \"" + key +
                                "\": expected a count >= 1, got \"" + value +
                                "\"");
  return v;
}

/// parseF64 restricted to [lo, hi] (NaN is outside every range): a NaN
/// kappa makes every acquisition compare false, and a NaN fraction reaches
/// a float-to-size_t cast.
double parseF64In(const std::string& key, const std::string& value, double lo,
                  double hi, const char* expected) {
  const double v = parseF64(key, value);
  if (!(v >= lo && v <= hi))
    throw std::invalid_argument("strategy option \"" + key + "\": expected " +
                                expected + ", got \"" + value + "\"");
  return v;
}

constexpr double kMaxF64 = std::numeric_limits<double>::max();

double parseFinite(const std::string& key, const std::string& value) {
  return parseF64In(key, value, -kMaxF64, kMaxF64, "a finite number");
}

/// Consume every entry of `options` through `apply` (key -> handled?);
/// throws on the first key no strategy knob answers to.
void applyOptions(std::string_view strategy, const Options& options,
                  const std::function<bool(const std::string&,
                                           const std::string&)>& apply,
                  const std::string& knownKeys) {
  for (const auto& [key, value] : options) {
    if (!apply(key, value))
      throw std::invalid_argument("strategy \"" + std::string(strategy) +
                                  "\" has no option \"" + key + "\" (known: " +
                                  knownKeys + ")");
  }
}

core::PvtStrategy parsePoolPolicy(const std::string& key,
                                  const std::string& value) {
  if (value == "brute_force") return core::PvtStrategy::kBruteForce;
  if (value == "progressive_random")
    return core::PvtStrategy::kProgressiveRandom;
  if (value == "progressive_hardest")
    return core::PvtStrategy::kProgressiveHardest;
  throw std::invalid_argument(
      "strategy option \"" + key +
      "\": expected brute_force | progressive_random | progressive_hardest, "
      "got \"" +
      value + "\"");
}

// ---- TRM-DRL behind the Strategy contract -------------------------------

/// Thin adapter: core::PvtSearch already is a budget-cumulative resumable
/// state machine that tracks its best point, so the wrapper only maps its
/// outcome onto the common schema.
class PvtSearchStrategy final : public Strategy {
 public:
  PvtSearchStrategy(core::SizingProblem problem, core::PvtSearchConfig config,
                    std::size_t budget)
      : search_(std::move(problem), config), budget_(budget) {}

  std::string_view name() const override { return "pvt_search"; }
  std::size_t budget() const override { return budget_; }

  const StrategyOutcome& step(std::size_t target) override {
    core::PvtSearchOutcome out = search_.run(std::min(target, budget_));
    result_.solved = out.solved;
    result_.iterations = out.totalSims;
    result_.sizes = std::move(out.sizes);
    result_.ledger = std::move(out.ledger);  // run() already snapshotted it
    result_.evalStats = out.evalStats;
    // Worst corner of the best point — the cross-strategy comparison scalar
    // (0 exactly when solved).
    result_.bestValue = out.bestValue;
    result_.bestMeasurements = std::move(out.bestEval.measurements);
    return result_;
  }

  const StrategyOutcome& outcome() const override { return result_; }
  bool finished() const override {
    return result_.solved || result_.iterations >= budget_;
  }
  eval::EvalEngine& engine() override { return search_.engine(); }

  bool supportsCheckpoint() const override { return true; }
  std::string saveCheckpointBlob() const override { return search_.save(); }
  void restoreCheckpointBlob(const std::string& blob,
                             const std::string& source) override {
    search_.restore(blob, source);
    step(0);  // refresh the cached outcome from the restored search
  }

 private:
  core::PvtSearch search_;
  std::size_t budget_ = 0;
  StrategyOutcome result_;
};

}  // namespace

std::vector<std::string> strategyNames() {
  return {"pvt_search", "random_search", "tree_bayes_opt", "rl_policy"};
}

std::unique_ptr<Strategy> makeStrategy(std::string_view name,
                                       core::SizingProblem problem,
                                       std::uint64_t seed, std::size_t budget,
                                       const Options& options) {
  if (name == "pvt_search") {
    core::PvtSearchConfig cfg;
    cfg.seed = seed;
    applyOptions(
        name, options,
        [&cfg](const std::string& k, const std::string& v) {
          if (k == "pool") cfg.strategy = parsePoolPolicy(k, v);
          // With no init sample an episode never evaluates anything, and
          // with no candidate no TRM step is ever planned.
          else if (k == "init_samples") cfg.explorer.initSamples = parseCount(k, v);
          else if (k == "mc_samples") cfg.explorer.mcSamples = parseCount(k, v);
          else return false;
          return true;
        },
        "pool, init_samples, mc_samples");
    return std::make_unique<PvtSearchStrategy>(std::move(problem), cfg, budget);
  }

  if (name == "random_search") {
    applyOptions(
        name, options,
        [](const std::string&, const std::string&) { return false; },
        "(none)");
    return std::make_unique<RandomSearch>(std::move(problem), seed, budget);
  }

  if (name == "tree_bayes_opt") {
    TreeBayesOptConfig cfg;
    cfg.seed = seed;
    applyOptions(
        name, options,
        [&cfg](const std::string& k, const std::string& v) {
          // The forest fits on the init samples, and an acquisition picks
          // from the candidate pool: each needs at least one.
          if (k == "init_samples") cfg.initSamples = parseCount(k, v);
          else if (k == "candidate_pool") cfg.candidatePool = parseCount(k, v);
          else if (k == "local_fraction")
            cfg.localFraction =
                parseF64In(k, v, 0.0, 1.0, "a number in [0, 1]");
          else if (k == "local_sigma")
            cfg.localSigma =
                parseF64In(k, v, std::numeric_limits<double>::denorm_min(),
                           kMaxF64, "a finite number > 0");
          else if (k == "kappa_start") cfg.kappaStart = parseFinite(k, v);
          else if (k == "kappa_end") cfg.kappaEnd = parseFinite(k, v);
          else if (k == "refit_divisor") cfg.refitDivisor = parseU64(k, v);
          else return false;
          return true;
        },
        "init_samples, candidate_pool, local_fraction, local_sigma, "
        "kappa_start, kappa_end, refit_divisor");
    return std::make_unique<TreeBayesOpt>(std::move(problem), cfg, budget);
  }

  if (name == "rl_policy") {
    rl::RlPolicyConfig cfg;
    applyOptions(
        name, options,
        [&cfg](const std::string& k, const std::string& v) {
          // A network with no hidden unit ignores its observation, and every
          // move divides by the stride divisor.
          if (k == "hidden") cfg.a2c.hidden = parseCount(k, v);
          else if (k == "n_steps") cfg.a2c.nSteps = parseU64(k, v);
          else if (k == "episode_length")
            cfg.a2c.env.episodeLength = parseU64(k, v);
          else if (k == "stride_divisor")
            cfg.a2c.env.strideDivisor = parseCount(k, v);
          else if (k == "learning_rate")
            cfg.a2c.learningRate = parseFinite(k, v);
          else if (k == "entropy_coeff")
            cfg.a2c.entropyCoeff = parseFinite(k, v);
          else return false;
          return true;
        },
        "hidden, n_steps, episode_length, stride_divisor, learning_rate, "
        "entropy_coeff");
    return std::make_unique<rl::RlPolicyStrategy>(std::move(problem), cfg,
                                                  seed, budget);
  }

  std::string known;
  for (const std::string& n : strategyNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown strategy \"" + std::string(name) +
                              "\" (known: " + known + ")");
}

}  // namespace trdse::opt
