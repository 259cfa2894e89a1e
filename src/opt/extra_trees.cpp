#include "opt/extra_trees.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/simd.hpp"

namespace trdse::opt {

namespace {

/// Split trials scored together in one pass over a node's samples; a node
/// with more trials scores them in several blocks of this many.
constexpr std::size_t kTrialBlock = 8;
static_assert(kTrialBlock % 4 == 0, "trials are scored four to a vector");

/// Rows whose leaves one predict() pass collects before it sums them.
constexpr std::size_t kPredictRows = 64;

/// Walks a tree takes at once.
constexpr std::size_t kWalks = 8;

double meanOf(const std::vector<double>& y, const std::vector<std::size_t>& idx,
              std::size_t begin, std::size_t end) {
  double s = 0.0;
  for (std::size_t i = begin; i < end; ++i) s += y[idx[i]];
  return s / static_cast<double>(end - begin);
}

}  // namespace

/// One fit's working set, shared by every tree of the fit.
struct ExtraTreesRegressor::FitScratch {
  std::size_t n = 0;
  const std::vector<double>* y = nullptr;
  std::vector<double> columns;     ///< the samples, column after column
  std::vector<std::size_t> index;  ///< sample order; each node owns a slice
  std::vector<double> values;      ///< a node's trial values, sample-major
  std::vector<double> targets;     ///< a node's targets, in sample order
  std::vector<double> squares;     ///< ... and their squares
};

ExtraTreesRegressor::ExtraTreesRegressor(ExtraTreesConfig config)
    : config_(config) {}

void ExtraTreesRegressor::buildNode(std::size_t node, std::size_t begin,
                                    std::size_t end, std::size_t depth,
                                    FitScratch& s, std::mt19937_64& rng) {
  const std::size_t count = end - begin;
  // A leaf keeps its mean in the threshold slot and is its own left child.
  const auto makeLeaf = [&] {
    nodes_[node].left = static_cast<std::uint32_t>(node);
    nodes_[node].threshold = meanOf(*s.y, s.index, begin, end);
  };
  if (count <= config_.minLeafSize || depth >= config_.maxDepth) {
    makeLeaf();
    return;
  }

  // Extremely randomized split: random (feature, threshold) trials scored by
  // SSE reduction; the first best wins.
  const std::size_t* idx = s.index.data() + begin;
  double* target = s.targets.data();
  double* square = s.squares.data();
  for (std::size_t i = 0; i < count; ++i) {
    target[i] = (*s.y)[idx[i]];
    square[i] = target[i] * target[i];
  }

  int bestFeature = -1;
  double bestThreshold = 0.0;
  double bestScore = std::numeric_limits<double>::infinity();
  std::uniform_int_distribution<std::size_t> featDist(0, dim_ - 1);
  for (std::size_t t0 = 0; t0 < config_.splitTrials; t0 += kTrialBlock) {
    const std::size_t trials = std::min(kTrialBlock, config_.splitTrials - t0);

    // Draw the block's trials in serial rng order: a feature, then, unless
    // its values over the node span no range, a threshold inside the range.
    std::size_t feature[kTrialBlock] = {};
    double threshold[kTrialBlock] = {};
    bool drawn[kTrialBlock] = {};
    for (std::size_t t = 0; t < trials; ++t) {
      const std::size_t f = featDist(rng);
      const double* col = s.columns.data() + f * s.n;
      double* v = s.values.data() + t;
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (std::size_t i = 0; i < count; ++i) {
        const double xi = col[idx[i]];
        v[i * kTrialBlock] = xi;
        lo = std::min(lo, xi);
        hi = std::max(hi, xi);
      }
      feature[t] = f;
      if (hi <= lo) continue;
      std::uniform_real_distribution<double> thrDist(lo, hi);
      threshold[t] = thrDist(rng);
      drawn[t] = true;
    }

    // Score every trial in one pass, each trial's sums in sample order, four
    // trials to a vector. The untaken side adds an exact +0.0, which leaves
    // a sum that started at +0.0 unchanged bit for bit; squares are rounded
    // before they are summed, as the scalar loop did.
    constexpr std::size_t kQuads = kTrialBlock / 4;
    const simd::V4d zero = simd::splat4(0.0);
    simd::V4d thr[kQuads];
    simd::V4d sL[kQuads];
    simd::V4d sL2[kQuads];
    simd::V4d sR[kQuads];
    simd::V4d sR2[kQuads];
    simd::V4i nLeft[kQuads];
    for (std::size_t q = 0; q < kQuads; ++q) {
      thr[q] = simd::load4(threshold + 4 * q);
      sL[q] = sL2[q] = sR[q] = sR2[q] = zero;
      nLeft[q] = simd::splatI4(0);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const simd::V4d yi = simd::splat4(target[i]);
      const simd::V4d y2 = simd::splat4(square[i]);
      const double* v = s.values.data() + i * kTrialBlock;
      for (std::size_t q = 0; q < kQuads; ++q) {
        const simd::V4i left = simd::load4(v + 4 * q) < thr[q];
        sL[q] += simd::select4(left, yi, zero);
        sL2[q] += simd::select4(left, y2, zero);
        sR[q] += simd::select4(left, zero, yi);
        sR2[q] += simd::select4(left, zero, y2);
        nLeft[q] -= left;
      }
    }
    // Each trial's SSE after the split, four at a time; the first best
    // valid trial wins.
    double score[kTrialBlock];
    std::int64_t nL[kTrialBlock];
    const simd::V4d n = simd::splat4(static_cast<double>(count));
    for (std::size_t q = 0; q < kQuads; ++q) {
      const simd::V4d nl = __builtin_convertvector(nLeft[q], simd::V4d);
      const simd::V4d nr = n - nl;
      const simd::V4d sseL = sL2[q] - sL[q] * sL[q] / nl;
      const simd::V4d sseR = sR2[q] - sR[q] * sR[q] / nr;
      simd::store4(score + 4 * q, sseL + sseR);
      std::memcpy(nL + 4 * q, &nLeft[q], sizeof nLeft[q]);
    }
    for (std::size_t t = 0; t < trials; ++t) {
      const bool split = drawn[t] && nL[t] > 0 &&
                         static_cast<std::size_t>(nL[t]) < count;
      if (split && score[t] < bestScore) {
        bestScore = score[t];
        bestFeature = static_cast<int>(feature[t]);
        bestThreshold = threshold[t];
      }
    }
  }

  if (bestFeature < 0) {
    makeLeaf();
    return;
  }

  const double* col =
      s.columns.data() + static_cast<std::size_t>(bestFeature) * s.n;
  const auto mid = std::partition(
      s.index.begin() + static_cast<long>(begin),
      s.index.begin() + static_cast<long>(end),
      [&](std::size_t i) { return col[i] < bestThreshold; });
  const std::size_t midIdx = static_cast<std::size_t>(mid - s.index.begin());
  if (midIdx == begin || midIdx == end) {
    makeLeaf();
    return;
  }

  const std::size_t children = nodes_.size();
  if (children > std::numeric_limits<std::uint32_t>::max() - 2)
    throw std::length_error("ExtraTreesRegressor: too many nodes");
  nodes_.resize(children + 2);
  buildNode(children, begin, midIdx, depth + 1, s, rng);
  buildNode(children + 1, midIdx, end, depth + 1, s, rng);
  Node& split = nodes_[node];
  split.feature = bestFeature;
  split.left = static_cast<std::uint32_t>(children);
  split.threshold = bestThreshold;
}

void ExtraTreesRegressor::fit(const std::vector<linalg::Vector>& x,
                              const std::vector<double>& y, std::uint64_t seed) {
  assert(x.size() == y.size() && !x.empty());
  const std::size_t n = x.size();
  dim_ = x[0].size();
  FitScratch s;
  s.n = n;
  s.y = &y;
  s.columns.resize(dim_ * n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t f = 0; f < dim_; ++f) s.columns[f * n + r] = x[r][f];
  s.index.resize(n);
  s.values.assign(n * kTrialBlock, 0.0);
  s.targets.resize(n);
  s.squares.resize(n);

  nodes_.clear();
  roots_.clear();
  std::mt19937_64 rng(seed);
  for (std::size_t t = 0; t < config_.numTrees; ++t) {
    std::iota(s.index.begin(), s.index.end(), 0);
    roots_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    nodes_.emplace_back();
    buildNode(roots_.back(), 0, n, 0, s, rng);
  }
}

template <std::size_t W>
void ExtraTreesRegressor::walk(std::uint32_t root, const double* x,
                               double* leaf, std::size_t stride) const {
  const Node* nodes = nodes_.data();
  std::uint32_t at[W];
#pragma GCC unroll 16
  for (std::size_t w = 0; w < W; ++w) at[w] = root;
  // Every walk steps until all rest on leaves. A leaf is its own left
  // child and never steps right, so it holds still.
  for (bool moving = true; moving;) {
    moving = false;
#pragma GCC unroll 16
    for (std::size_t w = 0; w < W; ++w) {
      const Node& nd = nodes[at[w]];
      const bool inner = nd.feature >= 0;
      const std::size_t f = inner ? static_cast<std::size_t>(nd.feature) : 0;
      const double xf = x[w * dim_ + f];
      at[w] = nd.left + (inner & !(xf < nd.threshold));
      moving |= inner;
    }
  }
#pragma GCC unroll 16
  for (std::size_t w = 0; w < W; ++w) leaf[w * stride] = nodes[at[w]].threshold;
}

void ExtraTreesRegressor::predict(const double* x, std::size_t rows,
                                  Prediction* out) const {
  assert(fitted());
  const std::size_t trees = roots_.size();
  // Leaf values of up to kPredictRows rows, each row's trees side by side.
  std::vector<double> leaf(std::min(rows, kPredictRows) * trees);
  for (std::size_t r0 = 0; r0 < rows; r0 += kPredictRows) {
    const std::size_t n = std::min(kPredictRows, rows - r0);
    const double* block = x + r0 * dim_;
    for (std::size_t t = 0; t < trees; ++t) {
      std::size_t r = 0;
      for (; r + kWalks <= n; r += kWalks)
        walk<kWalks>(roots_[t], block + r * dim_, &leaf[r * trees + t], trees);
      for (; r < n; ++r)
        walk<1>(roots_[t], block + r * dim_, &leaf[r * trees + t], trees);
    }
    for (std::size_t r = 0; r < n; ++r) {
      const double* v = &leaf[r * trees];
      Prediction p;
      double sum = 0.0;
      double sum2 = 0.0;
      for (std::size_t t = 0; t < trees; ++t) {
        sum += v[t];
        sum2 += v[t] * v[t];
      }
      const double nt = static_cast<double>(trees);
      p.mean = sum / nt;
      const double var = std::max(0.0, sum2 / nt - p.mean * p.mean);
      p.std = std::sqrt(var);
      out[r0 + r] = p;
    }
  }
}

Prediction ExtraTreesRegressor::predict(const linalg::Vector& x) const {
  assert(x.size() == dim_);
  Prediction p;
  predict(x.data(), 1, &p);
  return p;
}

}  // namespace trdse::opt
