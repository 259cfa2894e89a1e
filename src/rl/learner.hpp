// One model-free learner: the state owner behind the Table I trainers
// (train) and the rl_policy strategy.
//
// A learner owns everything an RL run mutates: the rollout collector (its
// engine and every environment slot), the policy and critic networks, their
// Adam moments (TRPO steps its policy by natural gradient, without Adam),
// PPO's mini-batch shuffle stream and the update counter. run(target) drives
// the collector to a request target, updating with its algorithm on every
// complete rollout.
//
// save() writes the whole state as one "rl-trainer" checkpoint at any
// request boundary (between rollouts, mid-rollout, mid-tick), and a learner
// built the same way continues from restore() bit for bit: the same
// RlTrainOutcome, engine ledger and statistics (docs/CHECKPOINTS.md). The
// checkpoint carries the learner's tag and fingerprint, so a restore into
// another algorithm, configuration or seed derivation fails loudly.
#pragma once

#include <optional>
#include <random>
#include <string>
#include <variant>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/a2c.hpp"
#include "rl/ppo.hpp"
#include "rl/trpo.hpp"
#include "rl/vec_env.hpp"

namespace trdse::rl {

/// A learner's update rule: one of the Table I algorithms, with its
/// hyper-parameters, environment shaping and base seed.
using RlAlgorithm = std::variant<A2cConfig, PpoConfig, TrpoConfig>;

/// Result of one model-free training run.
struct RlTrainOutcome {
  bool solved = false;                 ///< a satisfying design was found
  std::size_t simulationsToSolve = 0;  ///< sims at the first satisfying design
  std::size_t totalSimulations = 0;    ///< sims consumed over the whole run
  double bestEpisodeReturn = 0.0;      ///< best completed-episode return
};

/// One RL run's whole mutable state (see the file header). The problem it
/// is built on must outlive it.
class RlLearner {
 public:
  /// Seeds of a learner's streams. Environment e's state and policy-sampling
  /// streams derive from `envs` and `sampling` (see
  /// ParallelRolloutCollector).
  struct Seeds {
    std::uint64_t envs = 0;
    std::uint64_t sampling = 0;
    std::uint64_t policy = 0;   ///< policy-network initialisation
    std::uint64_t critic = 0;   ///< critic-network initialisation
    std::uint64_t shuffle = 0;  ///< PPO's mini-batch stream
  };

  /// A Table I trainer's learner, tagged "a2c", "ppo" or "trpo", its
  /// streams seeded at the config's seed plus that algorithm's offsets.
  RlLearner(const core::SizingProblem& problem, const RlAlgorithm& algorithm);
  /// A learner tagged `tag` on `seeds`. Throws std::invalid_argument when
  /// the algorithm's hidden width or its environments' strideDivisor is 0.
  RlLearner(const core::SizingProblem& problem, const RlAlgorithm& algorithm,
            std::string tag, const Seeds& seeds);

  RlLearner(const RlLearner&) = delete;
  RlLearner& operator=(const RlLearner&) = delete;

  /// Collect until the environments have made `target` requests in total or
  /// one of them solves, updating on every rollout of the algorithm's
  /// nSteps / horizon transitions.
  void run(std::size_t target);

  /// Requests made, the solve, and the best completed-episode return.
  RlTrainOutcome outcome() const;
  /// Rollouts handed to the update so far.
  std::size_t updates() const { return updates_; }
  const ParallelRolloutCollector& collector() const { return collector_; }
  eval::EvalEngine& engine() { return collector_.engine(); }

  /// The whole state as an "rl-trainer" checkpoint blob.
  std::string save() const;
  /// Restore a blob written by save() of a learner built the same way;
  /// `source` labels errors. A different tag, fingerprint or environment
  /// count throws io::CheckpointError before any state changes.
  void restore(const std::string& blob, const std::string& source);

 private:
  const core::SizingProblem& problem_;
  RlAlgorithm algorithm_;
  std::string tag_;
  ParallelRolloutCollector collector_;
  nn::Mlp policy_;
  nn::Mlp critic_;
  std::optional<nn::AdamOptimizer> policyOpt_;  ///< none for TRPO
  nn::AdamOptimizer criticOpt_;
  std::optional<std::mt19937_64> shuffleRng_;   ///< PPO only
  std::size_t updates_ = 0;
};

/// A Table I trainer: train on the problem's first corner until a
/// satisfying design is found or `maxSimulations` requests are spent (one
/// RlLearner run to the budget).
RlTrainOutcome train(const core::SizingProblem& problem,
                     const RlAlgorithm& algorithm, std::size_t maxSimulations);

}  // namespace trdse::rl
