// Multi-layer perceptron — the paper's SPICE function approximator f_NN(X; θ)
// (Eq. 3) and the policy/value networks of the model-free RL baselines.
//
// Parameters are exposed both per-layer and as a flat vector (getParameters /
// setParameters) because TRPO's conjugate-gradient step operates in flat
// parameter space.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "nn/dense_layer.hpp"

namespace trdse::nn {

/// Network shape and activation choice.
struct MlpConfig {
  std::vector<std::size_t> layerSizes;  ///< widths, e.g. {in, h1, h2, out}
  Activation hidden = Activation::kTanh;      ///< hidden-layer activation
  Activation output = Activation::kIdentity;  ///< output-layer activation
};

/// A plain fully-connected network with per-sample and batched
/// forward/backward paths that are bitwise identical to each other.
class Mlp {
 public:
  Mlp() = default;
  /// Build and Xavier/He-initialize from a config.
  Mlp(const MlpConfig& config, std::uint64_t seed);

  /// Input width (first layer size).
  std::size_t inputDim() const;
  /// Output width (last layer size).
  std::size_t outputDim() const;
  /// The shape this network was built from.
  const MlpConfig& config() const { return config_; }

  /// Forward pass that caches activations; pair with backward().
  linalg::Vector forward(const linalg::Vector& x);

  /// Stateless inference (no caches touched).
  linalg::Vector predict(const linalg::Vector& x) const;

  /// Backpropagate dL/dy from the most recent forward(); parameter gradients
  /// accumulate until zeroGrad(). Returns dL/dx.
  linalg::Vector backward(const linalg::Vector& gradOut);

  // ---- Batched path (batch × dim matrices; one GEMM per layer) ----

  /// Scratch buffers for allocation-free batched inference. Owned by the
  /// caller so const Mlps can be scored from many sites without contention.
  struct BatchWorkspace {
    linalg::Matrix ping;
    linalg::Matrix pong;
    linalg::Matrix pack;
  };

  /// Batched forward with caches; pair with backwardBatch(). The returned
  /// reference is valid until the next batched call.
  const linalg::Matrix& forwardBatch(const linalg::Matrix& x);

  /// Batched stateless inference into `out` (bitwise identical to calling
  /// predict() row by row). Steady-state calls do not allocate.
  void predictBatch(const linalg::Matrix& x, linalg::Matrix& out,
                    BatchWorkspace& ws) const;

  /// Convenience overload with a throwaway workspace.
  linalg::Matrix predictBatch(const linalg::Matrix& x) const;

  /// Batched backprop from the most recent forwardBatch(); gradients
  /// accumulate until zeroGrad(). Returns dL/dX (valid until the next
  /// batched call).
  const linalg::Matrix& backwardBatch(const linalg::Matrix& gradOut);

  /// Clear all accumulated parameter gradients.
  void zeroGrad();
  /// Re-draw all weights from the initializer (restart behaviour).
  void reinitialize(std::uint64_t seed);

  /// Total number of weights + biases.
  std::size_t parameterCount() const;
  /// All parameters as one flat vector (layer order, weights then bias).
  linalg::Vector getParameters() const;
  /// Overwrite all parameters from a flat vector.
  void setParameters(const linalg::Vector& flat);
  /// Accumulated gradients as one flat vector (same layout as parameters).
  linalg::Vector getGradients() const;
  /// In-place params += alpha * direction (flat space).
  void addToParameters(const linalg::Vector& direction, double alpha);

  /// Layer access (optimizers walk these).
  std::vector<DenseLayer>& layers() { return layers_; }
  /// Read-only layer access.
  const std::vector<DenseLayer>& layers() const { return layers_; }

 private:
  MlpConfig config_;
  std::vector<DenseLayer> layers_;
};

/// Average L2 gradient-norm clipping over the flat gradient, scaled in place
/// in each layer's storage; returns the pre-clip norm (RL trainers log it).
double clipGradNorm(Mlp& net, double maxNorm);

}  // namespace trdse::nn
