#include "opt/tree_bayes_opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace trdse::opt {

namespace {

/// Candidates drawn and predicted together; memory stays bounded whatever
/// the candidate pool.
constexpr std::size_t kCandidateBlock = 64;

}  // namespace

TreeBayesOpt::TreeBayesOpt(core::SizingProblem problem,
                           TreeBayesOptConfig config, std::size_t budget)
    : problem_(std::move(problem)),
      config_(config),
      value_(problem_.measurementNames, problem_.specs),
      engine_(problem_),
      rng_(config.seed),
      budget_(budget),
      gauss_(0.0, config.localSigma) {
  // The forest needs a sample to fit: without one every prediction is 0/0
  // and the search would stop before its first acquisition.
  if (config_.initSamples == 0)
    throw std::invalid_argument("TreeBayesOpt: initSamples must be >= 1");
}

bool TreeBayesOpt::finished() const {
  return phase_ == Phase::kDone || result_.solved ||
         result_.iterations >= budget_;
}

const StrategyOutcome& TreeBayesOpt::harvest() {
  result_.evalStats = engine_.stats();
  // The ledger grows with the budget; snapshot it once, at the end.
  if (finished()) result_.ledger = engine_.ledger();
  return result_;
}

void TreeBayesOpt::observe(const linalg::Vector& rawSizes) {
  const auto& space = problem_.space;
  const double nSpecs = static_cast<double>(problem_.specs.size());
  const double failTarget = -config_.failedPenaltyPerSpec * nSpecs;

  const linalg::Vector sizes = space.snap(rawSizes);
  // Worst value across all sign-off corners, with the pre-refactor early
  // exits: the total budget caps the sweep, and a hard simulation failure
  // dominates. Each check is one logical engine request.
  double worst = 0.0;
  linalg::Vector meas;
  for (std::size_t c = 0; c < problem_.corners.size(); ++c) {
    if (result_.iterations >= budget_) break;
    // Lookahead: the rest of the sweep, as far as the budget reaches.
    const std::size_t last =
        std::min(problem_.corners.size(), c + (budget_ - result_.iterations));
    const core::EvalResult r = engine_.evalOne(
        c, sizes, pvt::BlockKind::kSearch,
        [&sizes, c, last](std::size_t k, linalg::Vector& next,
                          std::size_t& corner) {
          corner = c + 1 + k;
          if (corner >= last) return false;
          next = sizes;
          return true;
        });
    ++result_.iterations;
    const double v = value_.valueOf(r);
    if (v < worst) {
      worst = v;
      if (r.ok) meas = r.measurements;
    } else if (meas.empty() && r.ok) {
      meas = r.measurements;
    }
    if (v <= core::kFailedValue) break;  // hard failure dominates
  }

  const double target = worst <= core::kFailedValue ? failTarget : worst;
  xs_.push_back(space.toUnit(sizes));
  ys_.push_back(target);
  if (worst > result_.bestValue) {
    result_.bestValue = worst;
    result_.sizes = sizes;
    result_.bestMeasurements = meas;
    bestUnit_ = xs_.back();
  }
  if (worst >= 0.0) {
    result_.solved = true;
    result_.sizes = sizes;
  }
}

const StrategyOutcome& TreeBayesOpt::step(std::size_t target) {
  target = std::min(target, budget_);
  const eval::LookaheadScope lookahead(engine_);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  const auto& space = problem_.space;
  const std::size_t dim = space.dim();
  std::vector<double> block(kCandidateBlock * dim);
  std::vector<Prediction> preds(kCandidateBlock);

  while (phase_ != Phase::kDone && !result_.solved &&
         result_.iterations < target) {
    if (phase_ == Phase::kInitSample) {
      if (initDone_ >= config_.initSamples) {
        phase_ = Phase::kBoLoop;
        continue;
      }
      observe(space.randomPoint(rng_));
      ++initDone_;
      continue;
    }

    // ---- One BO iteration: (re)fit, acquire, observe. ----
    const std::size_t refitGap = std::max<std::size_t>(
        1, xs_.size() / std::max<std::size_t>(1, config_.refitDivisor));
    if (!model_.fitted() || xs_.size() - lastFitSize_ >= refitGap) {
      model_.fit(xs_, ys_, config_.seed + result_.iterations);
      lastFitSize_ = xs_.size();
    }

    // Dynamic exploration/exploitation balance: kappa decays with the share
    // of the *total* budget consumed (slice-invariant by construction).
    const double progress = static_cast<double>(result_.iterations) /
                            static_cast<double>(budget_);
    const double kappa =
        config_.kappaStart + (config_.kappaEnd - config_.kappaStart) * progress;

    // Candidates are drawn a block at a time in the serial order, predicted
    // together, and scanned in order; only the winner is copied out.
    linalg::Vector bestCand;
    double bestAcq = -std::numeric_limits<double>::infinity();
    const std::size_t nLocal = static_cast<std::size_t>(
        config_.localFraction * static_cast<double>(config_.candidatePool));
    for (std::size_t c0 = 0; c0 < config_.candidatePool;
         c0 += kCandidateBlock) {
      const std::size_t rows =
          std::min(kCandidateBlock, config_.candidatePool - c0);
      for (std::size_t r = 0; r < rows; ++r) {
        double* u = block.data() + r * dim;
        if (c0 + r < nLocal && !bestUnit_.empty()) {
          for (std::size_t d = 0; d < dim; ++d)
            u[d] = std::clamp(bestUnit_[d] + gauss_(rng_), 0.0, 1.0);
        } else {
          for (std::size_t d = 0; d < dim; ++d) u[d] = unif(rng_);
        }
      }
      model_.predict(block.data(), rows, preds.data());
      std::size_t winner = rows;
      for (std::size_t r = 0; r < rows; ++r) {
        const double acq = preds[r].mean + kappa * preds[r].std;
        if (acq > bestAcq) {
          bestAcq = acq;
          winner = r;
        }
      }
      if (winner < rows)
        bestCand.assign(block.data() + winner * dim,
                        block.data() + (winner + 1) * dim);
    }
    if (bestCand.empty()) {
      phase_ = Phase::kDone;  // empty candidate pool: nothing left to try
      break;
    }
    observe(space.fromUnit(bestCand));
  }
  return harvest();
}

}  // namespace trdse::opt
