// Trust Region Policy Optimization (Schulman et al., 2015) — Table I
// baseline, and the paper's model-free namesake: note the contrast between
// TRPO's trust region in *policy parameter* space and the paper's trust
// region in *design* space.
//
// Natural-gradient step solved by conjugate gradients on Fisher-vector
// products (finite-difference of the KL gradient), followed by a backtracking
// line search enforcing the KL constraint and surrogate improvement. Every
// rollout-wide pass (surrogate gradient, KL gradient inside the CG
// Fisher-vector product, mean KL, surrogate value, critic regression) runs
// as one batched GEMM pass.
#pragma once

#include "core/problem.hpp"
#include "nn/optimizer.hpp"
#include "rl/a2c.hpp"  // RlTrainOutcome
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"

namespace trdse::rl {

/// Hyper-parameters of the TRPO baseline trainer.
struct TrpoConfig {
  std::size_t horizon = 256;        ///< rollout steps per env per update
  double gamma = 0.99;              ///< discount factor
  double gaeLambda = 0.95;          ///< GAE(lambda) mixing coefficient
  double maxKl = 0.01;              ///< trust-region KL radius
  double cgDamping = 0.1;           ///< Fisher damping added to F*v
  std::size_t cgIterations = 10;    ///< conjugate-gradient iterations
  std::size_t lineSearchSteps = 10; ///< backtracking line-search attempts
  double valueLearningRate = 1e-3;  ///< critic Adam step size
  std::size_t valueEpochs = 5;      ///< critic regression epochs per rollout
  std::size_t hidden = 64;          ///< hidden width of policy/critic MLPs
  /// Parallel rollout environments (1 reproduces the pre-collector serial
  /// trainer bitwise).
  std::size_t numEnvs = 1;
  /// Worker threads for rollout collection: 1 = inline, 0 = hardware
  /// concurrency. Trajectories are thread-count invariant, but with more
  /// than one worker the problem's evaluate callback must be thread-safe.
  std::size_t rolloutThreads = 1;
  EnvConfig env;                    ///< sizing-environment parameters
  std::uint64_t seed = 1;           ///< base seed for envs, nets and sampling
  /// Stop after this many policy updates (0 = unlimited) — pauses a run at
  /// an update boundary so it can be checkpointed and resumed bitwise.
  std::size_t maxUpdates = 0;
  /// Write a trainer checkpoint (networks, critic Adam moments, env/RNG
  /// state) to `checkpointPath` every N updates (0 = off).
  std::size_t checkpointEvery = 0;
  /// Destination of the periodic snapshots.
  std::string checkpointPath;
  /// Restore this checkpoint before training; the continued run reproduces
  /// the uninterrupted one bitwise (docs/CHECKPOINTS.md).
  std::string resumeFrom;
};

/// Train on the problem's first corner until a satisfying design is found or
/// the simulation budget is exhausted.
RlTrainOutcome trainTrpo(const core::SizingProblem& problem,
                         const TrpoConfig& cfg, std::size_t maxSimulations);

/// One full TRPO update (natural-gradient policy step via CG on
/// Fisher-vector products + backtracking line search, then critic
/// regression) over a flattened rollout. Returns whether the line search
/// accepted a policy step (the update is skipped entirely when the surrogate
/// gradient or the CG curvature degenerates, matching the serial trainer).
/// Bitwise identical to the per-sample passes (tests/rl_batch_test.cpp
/// keeps them as the reference). Exposed for parity tests and benchmarks.
bool trpoUpdate(nn::Mlp& policy, nn::Mlp& critic, nn::Optimizer& criticOpt,
                const FlatRollout& data, const TrpoConfig& cfg);

}  // namespace trdse::rl
