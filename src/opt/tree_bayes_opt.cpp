#include "opt/tree_bayes_opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace trdse::opt {

TreeBayesOpt::TreeBayesOpt(core::SizingProblem problem,
                           TreeBayesOptConfig config, std::size_t budget)
    : problem_(std::move(problem)),
      config_(config),
      value_(problem_.measurementNames, problem_.specs),
      engine_(problem_),
      rng_(config.seed),
      budget_(budget),
      gauss_(0.0, config.localSigma) {}

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

  while (phase_ != Phase::kDone && !result_.solved &&
         result_.iterations < target) {
    if (phase_ == Phase::kInitSample) {
      if (initDone_ >= config_.initSamples) {  // covers initSamples == 0
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

    linalg::Vector bestCand;
    double bestAcq = -std::numeric_limits<double>::infinity();
    const std::size_t nLocal = static_cast<std::size_t>(
        config_.localFraction * static_cast<double>(config_.candidatePool));
    for (std::size_t c = 0; c < config_.candidatePool; ++c) {
      linalg::Vector u(space.dim());
      if (c < nLocal && !bestUnit_.empty()) {
        for (std::size_t d = 0; d < space.dim(); ++d)
          u[d] = std::clamp(bestUnit_[d] + gauss_(rng_), 0.0, 1.0);
      } else {
        for (std::size_t d = 0; d < space.dim(); ++d) u[d] = unif(rng_);
      }
      const Prediction p = model_.predict(u);
      const double acq = p.mean + kappa * p.std;
      if (acq > bestAcq) {
        bestAcq = acq;
        bestCand = u;
      }
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
