// The loop the A2C / PPO / TRPO trainers share, and its checkpoint hooks.
//
// A trainer snapshot captures everything the training loop owns: actor and
// critic networks, their Adam moments, the rollout collector (its engine and
// every environment slot: env state + policy-sampling RNG streams), PPO's
// mini-batch shuffle stream, and the update counter. Restoring it and
// continuing reproduces the uninterrupted run's RlTrainOutcome bit for bit —
// the same contract the model-based searches honor (docs/CHECKPOINTS.md).
#pragma once

#include <functional>
#include <random>
#include <stdexcept>
#include <string>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/a2c.hpp"  // RlTrainOutcome
#include "rl/vec_env.hpp"

namespace trdse::rl {

/// Borrowed views of one trainer's mutable state. Optional members are null
/// when the algorithm has no such component (TRPO has no policy Adam, only
/// PPO keeps a shuffle stream).
struct TrainerState {
  std::string algo;                        ///< "a2c" / "ppo" / "trpo"
  std::string fingerprint;                 ///< trainerFingerprint() of the run
  nn::Mlp* policy = nullptr;               ///< actor network
  nn::Mlp* critic = nullptr;               ///< value network
  nn::AdamOptimizer* policyOpt = nullptr;  ///< actor Adam (null for TRPO)
  nn::AdamOptimizer* criticOpt = nullptr;  ///< critic Adam
  ParallelRolloutCollector* collector = nullptr;  ///< engine + env slots
  std::mt19937_64* shuffleRng = nullptr;   ///< PPO mini-batch stream
  std::size_t* updates = nullptr;          ///< completed policy updates
};

/// Compact single-line fingerprint of everything a trainer trajectory
/// depends on: the problem shape (grids, measurements, specs, the single
/// training corner), environment shaping, base seed, and the algorithm's
/// hyper-parameters rendered into `hyper`. Stored in every trainer
/// checkpoint and compared verbatim on resume, so a snapshot from a
/// different problem/configuration fails loudly instead of silently
/// breaking the bitwise-resume contract.
std::string trainerFingerprint(const core::SizingProblem& problem,
                               const EnvConfig& env, std::uint64_t seed,
                               const std::string& hyper);

/// Write a trainer snapshot to a versioned checkpoint file. Throws
/// io::CheckpointError when the file cannot be written.
void saveTrainerCheckpoint(const std::string& path, const TrainerState& s);

/// Restore a snapshot written by saveTrainerCheckpoint into `s`. The
/// networks, optimizers and collector must already be constructed with the
/// same shapes and environment count; algorithm or shape mismatches throw
/// io::CheckpointError with a descriptive message.
void restoreTrainerCheckpoint(const std::string& path, const TrainerState& s);

/// The training loop of every trainer (`Config` is A2cConfig, PpoConfig or
/// TrpoConfig): restore `cfg.resumeFrom` into `s` when set, then run the
/// collector up to `maxSimulations` requests, calling `update` on each
/// rollout of `transitions` transitions, saving `cfg.checkpointPath` every
/// `cfg.checkpointEvery` updates and pausing after `cfg.maxUpdates` (0 =
/// unlimited). Throws std::invalid_argument for a checkpoint cadence with no
/// path.
template <class Config>
RlTrainOutcome runTrainer(
    const Config& cfg, std::size_t transitions, const TrainerState& s,
    std::size_t maxSimulations,
    const std::function<void(const FlatRollout&)>& update) {
  if (cfg.checkpointEvery != 0 && cfg.checkpointPath.empty())
    throw std::invalid_argument(s.algo +
                                ": checkpointEvery is set but checkpointPath "
                                "is empty");
  if (!cfg.resumeFrom.empty()) restoreTrainerCheckpoint(cfg.resumeFrom, s);
  const auto more = [&] {
    return cfg.maxUpdates == 0 || *s.updates < cfg.maxUpdates;
  };
  if (more())
    s.collector->run(*s.policy, *s.critic, transitions, cfg.gamma,
                     cfg.gaeLambda, maxSimulations,
                     [&](const FlatRollout& data) {
                       update(data);
                       ++*s.updates;
                       if (cfg.checkpointEvery != 0 &&
                           *s.updates % cfg.checkpointEvery == 0)
                         saveTrainerCheckpoint(cfg.checkpointPath, s);
                       return more();
                     });
  RlTrainOutcome out;
  out.totalSimulations = s.collector->totalSimulations();
  out.solved = s.collector->solved();
  out.simulationsToSolve =
      out.solved ? s.collector->simsAtFirstSolve() : out.totalSimulations;
  out.bestEpisodeReturn = s.collector->bestEpisodeReturn();
  return out;
}

}  // namespace trdse::rl
