// Extremely-randomized-trees regressor (Geurts et al., 2006).
//
// The paper's "customized BO" replaces the usual Gaussian process with an
// extra-tree regressor to dodge the GP's cubic sample scaling. Each tree
// draws a random feature and a random threshold per split; the ensemble mean
// is the prediction and the across-tree spread is the uncertainty the
// acquisition function exploits.
//
// A fit keeps the whole forest in one flat node array, with each split's two
// children side by side, so a walk step is `left + !(x[f] < threshold)`; a
// leaf keeps its mean in the threshold slot and is its own left child.
// Prediction runs on blocks of rows, tree by tree, with several walks in
// flight; a one-row block is the single-point prediction, and a row's result
// does not depend on the block around it. Fits and predictions are
// bit-identical to the per-node, per-trial loops kept in
// tests/extra_trees_reference.hpp.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "linalg/matrix.hpp"

namespace trdse::opt {

struct ExtraTreesConfig {
  std::size_t numTrees = 30;
  std::size_t minLeafSize = 3;
  std::size_t maxDepth = 18;
  std::size_t splitTrials = 8;  ///< random (feature, threshold) pairs per node
};

struct Prediction {
  double mean = 0.0;
  double std = 0.0;
};

class ExtraTreesRegressor {
 public:
  explicit ExtraTreesRegressor(ExtraTreesConfig config = {});

  /// Fit on rows of `x` (all same dimension) against targets `y`.
  void fit(const std::vector<linalg::Vector>& x, const std::vector<double>& y,
           std::uint64_t seed);

  bool fitted() const { return !roots_.empty(); }

  /// One point of the fitted dimension: a one-row block prediction.
  Prediction predict(const linalg::Vector& x) const;

  /// Predict `rows` points stored row after row at `x` (each as many values
  /// as the fitted samples had) into `out[0, rows)`.
  void predict(const double* x, std::size_t rows, Prediction* out) const;

 private:
  struct Node {
    std::int32_t feature = -1;  ///< split feature; a leaf when negative
    std::uint32_t left = 0;     ///< left child (right: left + 1), or itself
    double threshold = 0.0;     ///< split threshold, or the leaf's mean
  };
  struct FitScratch;

  void buildNode(std::size_t node, std::size_t begin, std::size_t end,
                 std::size_t depth, FitScratch& s, std::mt19937_64& rng);

  /// Walk the W rows at `x` down the tree at `root` together; row w's leaf
  /// value goes to leaf[w * stride].
  template <std::size_t W>
  void walk(std::uint32_t root, const double* x, double* leaf,
            std::size_t stride) const;

  ExtraTreesConfig config_;
  std::size_t dim_ = 0;
  std::vector<Node> nodes_;           ///< every tree's nodes
  std::vector<std::uint32_t> roots_;  ///< each tree's root in nodes_
};

}  // namespace trdse::opt
