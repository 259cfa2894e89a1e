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

}  // namespace trdse::core
