#include "core/local_explorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace trdse::core {

void drawCandidates(const DesignSpace& space, const linalg::Vector& centerUnit,
                    double radius, std::size_t count, std::mt19937_64& rng,
                    linalg::Matrix& out) {
  std::uniform_real_distribution<double> unif(-1.0, 1.0);
  const std::size_t dim = space.dim();
  out.resize(count, dim);
  for (std::size_t s = 0; s < count; ++s) {
    double* row = out.row(s);
    for (std::size_t d = 0; d < dim; ++d)
      row[d] = std::clamp(centerUnit[d] + radius * unif(rng), 0.0, 1.0);
    // Score on the *snapped* candidate so the planned point is the
    // simulated point.
    space.snapUnit(row, row);
  }
}

LocalExplorer::LocalExplorer(DesignSpace space, ValueFunction value,
                             EvalFn evaluate, LocalExplorerConfig config)
    : space_(std::move(space)),
      value_(std::move(value)),
      config_(std::move(config)),
      // Single-corner inline engine. Ledger recording is off: SearchOutcome
      // surfaces only the stats counters, and a run takes thousands of
      // per-step evaluations (PvtSearch keeps its own recording engine for
      // session ledgers).
      engine_(std::make_unique<eval::EvalEngine>(
          std::make_shared<eval::CallbackBackend>(
              [fn = std::move(evaluate)](const linalg::Vector& sizes,
                                         const sim::PvtCorner&) {
                return fn(sizes);
              },
              "explorer"),
          space_, std::vector<sim::PvtCorner>{sim::PvtCorner{}},
          eval::MeetsSpecFn{},
          eval::EvalEngineConfig{config_.cacheEvals, /*threads=*/1,
                                 /*recordLedger=*/false})),
      surrogate_(space_.dim(),
                 /*outputDim=*/1,  // rebuilt once the measurement dim is known
                 config_.surrogate, config_.seed),
      rng_(config_.seed) {}

void LocalExplorer::trainLocal(const linalg::Vector& centerUnit, double radius) {
  LocalDataset::Selection sel = data_.selectLocal(
      centerUnit, config_.localityFactor * radius, config_.minLocalSamples);
  if (sel.inputs.empty()) return;
  surrogate_.setData(std::move(sel.inputs), std::move(sel.targets));
  surrogate_.train(rng_);
}

void LocalExplorer::planCandidates(const linalg::Vector& centerUnit,
                                   double radius, linalg::Vector& bestUnit,
                                   double& bestModelValue) {
  bestUnit.clear();
  bestModelValue = -std::numeric_limits<double>::infinity();
  // Every row is scored in one batched surrogate pass, then a strict->
  // selection keeps the first best candidate.
  drawCandidates(space_, centerUnit, radius, config_.mcSamples, rng_, candBuf_);
  surrogate_.predictBatch(candBuf_, predBuf_);
  std::size_t bestIdx = config_.mcSamples;
  for (std::size_t s = 0; s < config_.mcSamples; ++s) {
    const double v = value_.plannerScore(predBuf_.row(s));
    if (v > bestModelValue) {
      bestModelValue = v;
      bestIdx = s;
    }
  }
  if (bestIdx < config_.mcSamples) {
    const double* cr = candBuf_.row(bestIdx);
    bestUnit.assign(cr, cr + space_.dim());
  }
}

LocalExplorer::Evaluated LocalExplorer::simulate(const linalg::Vector& sizes,
                                                 SearchOutcome& out) {
  Evaluated e;
  e.sizes = space_.snap(sizes);
  e.unit = space_.toUnit(e.sizes);
  e.eval = engine_->evalOne(0, e.sizes, pvt::BlockKind::kSearch);
  e.value = value_.valueOf(e.eval);
  e.score = e.eval.ok ? value_.plannerScore(e.eval.measurements) : kFailedValue;
  ++out.iterations;
  if (e.eval.ok) data_.add(e.unit, e.eval.measurements);
  if (e.value > out.bestValue) {
    out.bestValue = e.value;
    out.sizes = e.sizes;
    out.eval = e.eval;
  }
  out.trace.bestValueHistory.push_back(out.bestValue);
  return e;
}

SearchOutcome LocalExplorer::run(std::size_t maxIterations) {
  engine_->resetAccounting();  // fresh per-run accounting; the memo persists
  SearchOutcome out = runSearch(maxIterations);
  out.evalStats = engine_->stats();
  return out;
}

SearchOutcome LocalExplorer::runSearch(std::size_t maxIterations) {
  SearchOutcome out;
  bool firstEpisode = true;

  // The surrogate's output dimension is discovered from the first successful
  // simulation; rebuild it lazily.
  std::optional<std::size_t> measDim;
  auto ensureSurrogate = [&](std::size_t dim) {
    if (measDim.has_value()) return;
    measDim = dim;
    surrogate_ = SpiceSurrogate(space_.dim(), dim, config_.surrogate,
                                config_.seed + 17);
    if (config_.warmStartWeights != nullptr)
      surrogate_.adoptWeights(*config_.warmStartWeights);
  };

  while (out.iterations < maxIterations) {
    // ---- Algorithm 1 lines 2-4: global Monte Carlo, pick the best region.
    Evaluated center;
    center.value = kFailedValue;
    bool haveCenter = false;
    for (std::size_t k = 0; k < config_.initSamples; ++k) {
      if (out.iterations >= maxIterations) break;
      linalg::Vector x;
      if (firstEpisode && k == 0 && config_.startingPoint.has_value()) {
        x = *config_.startingPoint;  // porting: start from the donor optimum
      } else {
        x = space_.randomPoint(rng_);
      }
      Evaluated e = simulate(x, out);
      if (e.eval.ok) ensureSurrogate(e.eval.measurements.size());
      if (e.eval.ok && value_.satisfied(e.eval.measurements)) {
        out.solved = true;
        out.sizes = e.sizes;
        out.eval = e.eval;
        out.bestValue = e.value;
        return out;
      }
      if (e.score > center.score || !haveCenter) {
        center = e;
        haveCenter = true;
      }
    }
    firstEpisode = false;
    if (!haveCenter || !measDim.has_value()) {
      // Nothing simulated successfully this episode — try a fresh batch.
      ++out.trace.restarts;
      continue;
    }

    // ---- Algorithm 1 line 5: fresh trust region; weights per config.
    TrustRegion tr(config_.trustRegion);
    std::size_t sinceRestart = 0;
    std::size_t sinceImprovement = 0;

    // ---- lines 6-17: local search loop.
    while (out.iterations < maxIterations) {
      // line 8: θ ← θ − α ∂J/∂θ over the local trajectory (D_L).
      trainLocal(center.unit, tr.radius());

      // line 10: sample m points in the trust region, score on the model.
      const double radius = tr.radius();
      out.trace.radiusHistory.push_back(radius);
      linalg::Vector bestUnit;
      double bestModelValue;
      planCandidates(center.unit, radius, bestUnit, bestModelValue);
      if (bestUnit.empty()) break;

      // line 11-12: SPICE the trial, run the TRM ratio test.
      const double predictedCenter =
          value_.plannerScore(surrogate_.predict(center.unit));
      const double predictedDelta = bestModelValue - predictedCenter;
      Evaluated trial = simulate(space_.fromUnit(bestUnit), out);

      if (trial.eval.ok && value_.satisfied(trial.eval.measurements)) {
        out.solved = true;  // line 13-14
        out.sizes = trial.sizes;
        out.eval = trial.eval;
        out.bestValue = trial.value;
        return out;
      }

      const double actualDelta =
          (trial.score <= kFailedValue ? -1.0 : trial.score - center.score);
      const TrustRegionStep step = tr.evaluateStep(predictedDelta, actualDelta);
      if (step.accepted && trial.eval.ok) {
        sinceImprovement = trial.score > center.score ? 0 : sinceImprovement + 1;
        center = trial;
        ++out.trace.acceptedSteps;
      } else {
        ++sinceImprovement;
        ++out.trace.rejectedSteps;
      }

      // line 15-16: escape to a fresh global sample when stuck.
      if (++sinceRestart > config_.restartAfter ||
          sinceImprovement > config_.stagnationPatience) {
        ++out.trace.restarts;
        surrogate_.reinitialize(config_.seed + 31 * (out.trace.restarts + 1));
        break;
      }
    }
  }
  return out;
}

}  // namespace trdse::core
