#include "core/local_explorer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/thread_pool.hpp"

namespace trdse::core {

namespace {

/// Line 10's uniform draws: every rng draw of a plan, serial and
/// candidate-major, clamped to the unit cube (snapping is left to the
/// chunks — it is pure per row).
void drawCandidates(const linalg::Vector& centerUnit, double radius,
                    std::size_t count, std::mt19937_64& rng,
                    linalg::Matrix& out) {
  std::uniform_real_distribution<double> unif(-1.0, 1.0);
  const std::size_t dim = centerUnit.size();
  out.resize(count, dim);
  for (std::size_t s = 0; s < count; ++s) {
    double* row = out.row(s);
    for (std::size_t d = 0; d < dim; ++d)
      row[d] = std::clamp(centerUnit[d] + radius * unif(rng), 0.0, 1.0);
  }
}

}  // namespace

std::size_t CandidatePlanner::plan(
    const DesignSpace& space, const ValueFunction& value,
    std::span<const SpiceSurrogate* const> surrogates,
    const linalg::Vector& centerUnit, double radius, std::size_t count,
    std::mt19937_64& rng, common::ThreadPool* pool) {
  assert(centerUnit.size() == space.dim());
  drawCandidates(centerUnit, radius, count, rng, cand_);
  scores_.assign(count, std::numeric_limits<double>::infinity());
  if (count == 0) return 0;

  // Chunks of whole GEMM row tiles, as even as possible, one per pool
  // thread: every row is computed as it would be in the whole block.
  constexpr std::size_t kTile = linalg::kGemmRowTile;
  const std::size_t tiles = (count + kTile - 1) / kTile;
  const std::size_t wanted =
      std::min(tiles, pool != nullptr ? pool->workerCount() + 1 : 1);
  const std::size_t rowsPerChunk = kTile * ((tiles + wanted - 1) / wanted);
  const std::size_t nChunks = (count + rowsPerChunk - 1) / rowsPerChunk;
  if (chunks_.size() < nChunks) chunks_.resize(nChunks);

  const std::size_t dim = space.dim();
  common::parallelForOn(pool, nChunks, [&](std::size_t c) {
    const std::size_t begin = c * rowsPerChunk;
    const std::size_t end = std::min(count, begin + rowsPerChunk);
    Chunk& ch = chunks_[c];
    ch.x.resize(end - begin, dim);
    for (std::size_t s = begin; s < end; ++s) {
      double* row = cand_.row(s);
      space.snapUnit(row, row);
      std::copy(row, row + dim, ch.x.row(s - begin));
    }
    for (const SpiceSurrogate* sur : surrogates) {
      sur->predictBatch(ch.x, ch.pred, ch.ws);
      for (std::size_t s = begin; s < end; ++s)
        scores_[s] =
            std::min(scores_[s], value.plannerScore(ch.pred.row(s - begin)));
    }
  });

  // Strict > keeps the first best candidate.
  std::size_t best = count;
  double bestScore = -std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < count; ++s) {
    const double v = scores_[s];
    if (v < std::numeric_limits<double>::infinity() && v > bestScore) {
      bestScore = v;
      best = s;
    }
  }
  return best;
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
      const SpiceSurrogate* scoring = &surrogate_;
      const std::size_t best = planner_.plan(
          space_, value_, std::span(&scoring, 1), center.unit, radius,
          config_.mcSamples, rng_, common::ThreadPool::current());
      if (best == config_.mcSamples) break;
      const double bestModelValue = planner_.scores()[best];
      const double* bestRow = planner_.candidates().row(best);
      const linalg::Vector bestUnit(bestRow, bestRow + space_.dim());

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
