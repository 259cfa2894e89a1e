// Reference extra-trees forest: the per-node, per-trial loops the library's
// opt::ExtraTreesRegressor replaced, kept as the oracle its fit and
// prediction are compared against bit for bit (tests/opt_test.cpp).
//
// Each tree is its own vector of nodes; each node draws its split trials one
// at a time from the fit's rng and scores each trial in its own pass over
// the node's samples, read through the index vector. The library draws the
// same trials in the same rng order and scores them in one pass; whatever it
// does, the trees and every prediction must come out equal to these.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "linalg/matrix.hpp"
#include "opt/extra_trees.hpp"

namespace trdse::opt::reference {

class ExtraTreesRegressor {
 public:
  explicit ExtraTreesRegressor(ExtraTreesConfig config = {})
      : config_(config) {}

  void fit(const std::vector<linalg::Vector>& x, const std::vector<double>& y,
           std::uint64_t seed) {
    assert(x.size() == y.size() && !x.empty());
    trees_.clear();
    trees_.resize(config_.numTrees);
    std::mt19937_64 rng(seed);
    for (auto& tree : trees_) {
      std::vector<std::size_t> indices(x.size());
      std::iota(indices.begin(), indices.end(), 0);
      buildNode(tree, x, y, indices, 0, indices.size(), 0, rng);
    }
  }

  bool fitted() const { return !trees_.empty(); }

  Prediction predict(const linalg::Vector& x) const {
    assert(fitted());
    Prediction p;
    double sum = 0.0;
    double sum2 = 0.0;
    for (const auto& tree : trees_) {
      const double v = predictTree(tree, x);
      sum += v;
      sum2 += v * v;
    }
    const double n = static_cast<double>(trees_.size());
    p.mean = sum / n;
    const double var = std::max(0.0, sum2 / n - p.mean * p.mean);
    p.std = std::sqrt(var);
    return p;
  }

 private:
  struct Node {
    // Leaf when feature < 0.
    int feature = -1;
    double threshold = 0.0;
    std::size_t left = 0;
    std::size_t right = 0;
    double value = 0.0;  ///< leaf mean
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  static double meanOf(const std::vector<double>& y,
                       const std::vector<std::size_t>& idx, std::size_t begin,
                       std::size_t end) {
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) s += y[idx[i]];
    return s / static_cast<double>(end - begin);
  }

  std::size_t buildNode(Tree& tree, const std::vector<linalg::Vector>& x,
                        const std::vector<double>& y,
                        std::vector<std::size_t>& indices, std::size_t begin,
                        std::size_t end, std::size_t depth,
                        std::mt19937_64& rng) {
    const std::size_t nodeIdx = tree.nodes.size();
    tree.nodes.emplace_back();

    const std::size_t count = end - begin;
    if (count <= config_.minLeafSize || depth >= config_.maxDepth) {
      tree.nodes[nodeIdx].value = meanOf(y, indices, begin, end);
      return nodeIdx;
    }

    // Extremely randomized split: a handful of random (feature, threshold)
    // candidates scored by SSE reduction; best wins.
    const std::size_t dim = x[indices[begin]].size();
    int bestFeature = -1;
    double bestThreshold = 0.0;
    double bestScore = std::numeric_limits<double>::infinity();
    std::uniform_int_distribution<std::size_t> featDist(0, dim - 1);
    for (std::size_t trial = 0; trial < config_.splitTrials; ++trial) {
      const std::size_t f = featDist(rng);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (std::size_t i = begin; i < end; ++i) {
        lo = std::min(lo, x[indices[i]][f]);
        hi = std::max(hi, x[indices[i]][f]);
      }
      if (hi <= lo) continue;
      std::uniform_real_distribution<double> thrDist(lo, hi);
      const double thr = thrDist(rng);
      // Partition-free scoring pass.
      double sumL = 0.0;
      double sumL2 = 0.0;
      double sumR = 0.0;
      double sumR2 = 0.0;
      std::size_t nL = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const double yi = y[indices[i]];
        if (x[indices[i]][f] < thr) {
          sumL += yi;
          sumL2 += yi * yi;
          ++nL;
        } else {
          sumR += yi;
          sumR2 += yi * yi;
        }
      }
      const std::size_t nR = count - nL;
      if (nL == 0 || nR == 0) continue;
      const double sseL = sumL2 - sumL * sumL / static_cast<double>(nL);
      const double sseR = sumR2 - sumR * sumR / static_cast<double>(nR);
      const double score = sseL + sseR;
      if (score < bestScore) {
        bestScore = score;
        bestFeature = static_cast<int>(f);
        bestThreshold = thr;
      }
    }

    if (bestFeature < 0) {
      tree.nodes[nodeIdx].value = meanOf(y, indices, begin, end);
      return nodeIdx;
    }

    const auto mid = std::partition(
        indices.begin() + static_cast<long>(begin),
        indices.begin() + static_cast<long>(end), [&](std::size_t i) {
          return x[i][static_cast<std::size_t>(bestFeature)] < bestThreshold;
        });
    const std::size_t midIdx =
        static_cast<std::size_t>(mid - indices.begin());
    if (midIdx == begin || midIdx == end) {
      tree.nodes[nodeIdx].value = meanOf(y, indices, begin, end);
      return nodeIdx;
    }

    const std::size_t left =
        buildNode(tree, x, y, indices, begin, midIdx, depth + 1, rng);
    const std::size_t right =
        buildNode(tree, x, y, indices, midIdx, end, depth + 1, rng);
    Node& node = tree.nodes[nodeIdx];
    node.feature = bestFeature;
    node.threshold = bestThreshold;
    node.left = left;
    node.right = right;
    return nodeIdx;
  }

  double predictTree(const Tree& tree, const linalg::Vector& x) const {
    std::size_t idx = 0;
    while (tree.nodes[idx].feature >= 0) {
      const Node& n = tree.nodes[idx];
      idx = (x[static_cast<std::size_t>(n.feature)] < n.threshold) ? n.left
                                                                   : n.right;
    }
    return tree.nodes[idx].value;
  }

  ExtraTreesConfig config_;
  std::vector<Tree> trees_;
};

}  // namespace trdse::opt::reference
