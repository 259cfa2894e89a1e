// Algorithm 1 line 10: Monte Carlo planning inside the trust region on the
// per-corner surrogates (paper IV-B, Eq. 5).
#pragma once

#include <random>
#include <span>
#include <vector>

#include "core/problem.hpp"
#include "core/surrogate.hpp"
#include "core/value.hpp"
#include "linalg/matrix.hpp"

namespace trdse::common {
class ThreadPool;
}  // namespace trdse::common

namespace trdse::core {

/// Algorithm 1 line 10, PvtSearch's planner: Monte Carlo candidates in the
/// trust region, scored on one or more surrogates, keeping the candidate
/// whose lowest planner score across them is highest (the paper's "lowest
/// expected value" rule for a PVT pool).
///
/// A plan draws its uniforms serially from the caller's rng, then snaps and
/// scores the block in row chunks — concurrently when given a pool. Chunks
/// start at multiples of linalg::kGemmRowTile and each has its own scratch,
/// per-candidate scores reduce by min in surrogate order, and the pick is a
/// serial first-best scan, so the result is bitwise the same for any pool.
class CandidatePlanner {
 public:
  /// Draw `count` candidates uniformly in the infinity-norm ball of `radius`
  /// around `centerUnit` (candidate-major, dimension-minor), clamp each to
  /// the unit cube and snap it onto the grid, so the planned point is the
  /// simulated point: row s equals the per-sample draw
  /// `toUnit(fromUnitSnapped(clamp(center + radius * unif)))` bitwise. Score
  /// row s as the min over `surrogates` of value.plannerScore(prediction)
  /// (+inf with no surrogates). Returns the first row with the highest
  /// finite score, or `count` when none scored. `pool` (may be null: inline)
  /// runs the chunks; on a pool of N threads the block splits into N chunks.
  std::size_t plan(const DesignSpace& space, const ValueFunction& value,
                   std::span<const SpiceSurrogate* const> surrogates,
                   const linalg::Vector& centerUnit, double radius,
                   std::size_t count, std::mt19937_64& rng,
                   common::ThreadPool* pool);

  /// The last plan's snapped candidates, one unit-space row each.
  const linalg::Matrix& candidates() const { return cand_; }
  /// The last plan's per-candidate scores (min over the surrogates).
  const std::vector<double>& scores() const { return scores_; }

 private:
  /// One row chunk's scratch: its candidates, their predictions, and the
  /// surrogate workspace — never shared between concurrent chunks.
  struct Chunk {
    linalg::Matrix x;
    linalg::Matrix pred;
    SpiceSurrogate::PredictWorkspace ws;
  };

  linalg::Matrix cand_;
  std::vector<double> scores_;
  std::vector<Chunk> chunks_;
};

}  // namespace trdse::core
