// The SPICE function approximator f_NN(X; θ) (paper Eq. 3-4) with its data
// plumbing: unit-space inputs, standardized measurement outputs, and an
// online training loop over the trajectory collected so far.
//
// The network predicts the full *measurement vector*, never the scalar value
// — the Value function is applied after prediction (paper IV-D), keeping
// reward shaping out of training entirely.
#pragma once

#include <optional>
#include <random>
#include <vector>

#include "core/problem.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/scaler.hpp"

namespace trdse::core {

/// Architecture and training hyper-parameters of the surrogate network.
struct SurrogateConfig {
  std::size_t hiddenWidth = 48;  ///< neurons per hidden layer
  std::size_t hiddenLayers = 2;  ///< "3 layers" in the paper = 2 hidden + output
  double learningRate = 3e-3;    ///< Adam step size
  std::size_t epochsPerUpdate = 40;  ///< epochs per update (fit() call)
  std::size_t batchSize = 16;        ///< mini-batch size
};

/// Pick a network width from problem shape — the paper's "automatic script
/// constructs the neural network architectures and hyperparameters".
SurrogateConfig autoConfigure(std::size_t paramDim, std::size_t measDim);

/// The paper's f_NN(X; θ): an online-trained MLP from unit-space sizings to
/// raw measurement vectors, with input/output scaling handled internally.
class SpiceSurrogate {
 public:
  /// Construct an untrained network for the given input/output widths.
  SpiceSurrogate(std::size_t inputDim, std::size_t outputDim,
                 SurrogateConfig config, std::uint64_t seed);

  /// Add one (unit-space sizes, raw measurements) pair to the trajectory.
  void addSample(const linalg::Vector& unitX, const linalg::Vector& measurements);

  /// Replace the training set wholesale — used by the search to restrict
  /// training to the samples inside the current local region D_L.
  void setData(std::vector<linalg::Vector> unitXs,
               std::vector<linalg::Vector> measurements);

  /// Number of stored training pairs.
  std::size_t sampleCount() const { return inputs_.size(); }

  /// One training update — the θ ← θ − α ∂J/∂θ line of Algorithm 1 — is
  /// drawShuffles(rng) followed by fit(). This is its rng part: one shuffle
  /// of the current samples per epoch (`epochsPerUpdate` orders), consumed by
  /// the next fit(). Draws nothing when there are no samples.
  void drawShuffles(std::mt19937_64& rng);

  /// The update's pure part: refit both standardizers, standardize the
  /// samples once into persistent matrices, and run `epochsPerUpdate` epochs
  /// of mini-batch MSE over the orders drawShuffles() drew (and consumes
  /// them). Touches only this surrogate, so fits of different surrogates may
  /// run concurrently. Returns mean loss of the last epoch.
  double fit();

  /// Predict raw (de-standardized) measurements at a unit-space point.
  linalg::Vector predict(const linalg::Vector& unitX) const;

  /// Caller-owned scratch for predictBatch: one per concurrent caller.
  struct PredictWorkspace {
    nn::Mlp::BatchWorkspace net;
    linalg::Matrix scaled;
    linalg::Matrix z;
  };

  /// Batched predict: row r of `unitX` is one unit-space point, row r of
  /// `out` its raw measurements — bitwise identical to predict() row by row,
  /// but one GEMM per layer for the whole block. Steady-state calls on the
  /// same workspace do not allocate.
  void predictBatch(const linalg::Matrix& unitX, linalg::Matrix& out,
                    PredictWorkspace& ws) const;

  /// Reinitialize weights (restart / porting-baseline behaviour).
  void reinitialize(std::uint64_t seed);

  /// Underlying network (read-only; porting saves its weights).
  const nn::Mlp& network() const { return net_; }
  /// Underlying network (mutable).
  nn::Mlp& network() { return net_; }
  /// Adopt foreign weights (process-porting "weight sharing"); dimensions
  /// must match. Returns false on mismatch.
  bool adoptWeights(const nn::Mlp& other);

  // Checkpoint access: the full training state is (network, Adam moments,
  // fitted scalers, stored training pairs); restoring all four resumes the
  // online training stream bit-exactly.

  /// Adam state over the network parameters, read-only.
  const nn::AdamOptimizer& optimizer() const { return opt_; }
  /// Adam state, mutable (checkpoint restore).
  nn::AdamOptimizer& optimizer() { return opt_; }
  /// Fitted input standardizer, read-only.
  const nn::Standardizer& inputScaler() const { return inScaler_; }
  /// Fitted input standardizer, mutable (checkpoint restore).
  nn::Standardizer& inputScaler() { return inScaler_; }
  /// Fitted output standardizer, read-only.
  const nn::Standardizer& outputScaler() const { return outScaler_; }
  /// Fitted output standardizer, mutable (checkpoint restore).
  nn::Standardizer& outputScaler() { return outScaler_; }
  /// Stored training inputs (unit space), in insertion order.
  const std::vector<linalg::Vector>& sampleInputs() const { return inputs_; }
  /// Stored raw measurement targets, parallel to sampleInputs().
  const std::vector<linalg::Vector>& sampleTargets() const {
    return targetsRaw_;
  }

 private:
  SurrogateConfig config_;
  nn::Mlp net_;
  nn::AdamOptimizer opt_;
  nn::Standardizer inScaler_;
  nn::Standardizer outScaler_;
  std::vector<linalg::Vector> inputs_;
  std::vector<linalg::Vector> targetsRaw_;

  // Training scratch, reused across updates: the drawn epoch orders
  // (`epochsPerUpdate` permutations of the samples, back to back), the
  // standardized samples (one row each) and the epoch workspace.
  std::vector<std::size_t> orders_;
  linalg::Matrix trainX_;
  linalg::Matrix trainY_;
  nn::TrainWorkspace trainWs_;
};

}  // namespace trdse::core
