#include "core/planner.hpp"

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

SnapTable::SnapTable(const DesignSpace& space) {
  // A direct index within `guard` steps of a tie may round the other way
  // from the exact one. The two differ by a few ulps of y (pow, log10, the
  // subtraction) scaled into grid steps, plus a few ulps of the index itself:
  // kGuardUlps ulps of both is a margin of about 10^6 over that. Past
  // kMaxGuard the fallback would be common, so the axis stays exact.
  constexpr double kGuardUlps = 0x1p20;
  constexpr double kMaxGuard = 1e-3;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  axes_.assign(space.dim(), Axis{});
  for (std::size_t i = 0; i < space.dim(); ++i) {
    const ParamDef& p = space.param(i);
    Axis& ax = axes_[i];
    ax.offset = unit_.size();
    ax.last = p.steps - 1;
    ax.guard = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < p.steps; ++k)
      unit_.push_back(space.valueToUnit(i, space.gridValue(i, k)));
    if (!p.logScale) continue;
    ax.logLo = std::log10(p.lo);
    ax.logSpan = std::log10(p.hi) - ax.logLo;
    ax.scale = static_cast<double>(ax.last) / ax.logSpan;
    const double guard =
        kGuardUlps * kEps *
        (std::max(std::abs(ax.logLo), std::abs(ax.logLo + ax.logSpan)) +
         ax.logSpan) *
        ax.scale;
    // A degenerate range gives 0/0 or x/0 here: not below kMaxGuard.
    if (guard < kMaxGuard) ax.guard = guard;
  }
}

void SnapTable::snap(const DesignSpace& space, const double* u,
                     double* out) const {
  assert(space.dim() == dim());
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    const Axis& ax = axes_[i];
    std::size_t k = 0;
    bool exact = true;
    if (ax.guard < std::numeric_limits<double>::infinity()) {
      const double t = std::clamp(u[i], 0.0, 1.0);
      const double y = ax.logLo + t * ax.logSpan;
      const double z = (y - ax.logLo) * ax.scale + 0.5;
      // z >= 0 up to rounding, so truncation rounds the index to nearest.
      k = z > 0.0 ? static_cast<std::size_t>(z) : 0;
      const double f = z - static_cast<double>(k);
      exact = !(f >= ax.guard && f <= 1.0 - ax.guard);
    }
    if (exact) k = space.nearestIndex(i, space.unitToValue(i, u[i]));
    // Only a NaN coordinate, outside the contract, can land past the axis.
    out[i] = unit_[ax.offset + std::min(k, ax.last)];
  }
}

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
  if (!snap_) snap_.emplace(space);
  assert(snap_->dim() == dim);
  common::parallelForOn(pool, nChunks, [&](std::size_t c) {
    const std::size_t begin = c * rowsPerChunk;
    const std::size_t end = std::min(count, begin + rowsPerChunk);
    Chunk& ch = chunks_[c];
    ch.x.resize(end - begin, dim);
    for (std::size_t s = begin; s < end; ++s) {
      double* row = cand_.row(s);
      snap_->snap(space, row, row);
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

}  // namespace trdse::core
