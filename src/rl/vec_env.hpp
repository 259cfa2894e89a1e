// Multi-environment rollout collection, four environments per simulator pass
// (AutoCkt-style parallel trajectory sampling) — the one rollout loop behind
// RlPolicyStrategy and the A2C / PPO / TRPO trainers.
//
// The collector owns one EvalEngine over the problem's first corner (see
// makeEnvEngine) and runs N SizingEnvs on it, N being the engine's
// batchWidth(): sim::kSimLanes (4) for a problem with a fused evaluateBatch,
// 1 without. Each environment owns its RNG streams and its rollout buffer.
//
// One tick steps every environment once, in environment order, with one
// evalOne request each: a reset when it has no observation (at the start and
// after an episode ends), else a policy-sampled step. A request that must
// simulate offers the engine the tick's later environments' next points as
// its lookahead, built lazily: each one's action (or reset point) is sampled
// on a copy of its stream, so a cache hit samples nothing extra and no
// pending state outlives the request. One lane pass therefore serves a whole
// tick, while the ledger and statistics stay exactly those of one request at
// a time in environment order.
//
// Policy updates happen only at tick boundaries, so an update never
// invalidates a point simulated ahead. Collection stops at the exact request
// target or at the request that solves (a reset or a step onto a point that
// meets every spec), and the lookahead buffer is emptied before run()
// returns.
#pragma once

#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "nn/mlp.hpp"
#include "rl/rollout.hpp"
#include "rl/sizing_env.hpp"

namespace trdse::io {
class CheckpointReader;
class CheckpointWriter;
}  // namespace trdse::io

namespace trdse::rl {

/// Collects trajectories from N sizing environments sharing one engine.
///
/// Environment state (grid position, episode progress, RNG streams) persists
/// across run() calls, and so does a partly collected rollout: a call that
/// stops mid-tick resumes with the next environment. The problem must
/// outlive the collector.
class ParallelRolloutCollector {
 public:
  /// Called with each complete rollout, flattened. It may update the
  /// networks run() samples from: the next tick uses the updated ones.
  using UpdateFn = std::function<void(const FlatRollout&)>;

  /// Environment e uses seed `envSeed` (`rngSeed` for its policy-sampling
  /// stream) when e == 0 and common::perTaskSeed(envSeed or rngSeed, e)
  /// otherwise, so a one-environment collector keeps the bases verbatim.
  ParallelRolloutCollector(const core::SizingProblem& problem,
                           const EnvConfig& envConfig, std::uint64_t envSeed,
                           std::uint64_t rngSeed);

  /// Number of environments: the engine's batch width.
  std::size_t numEnvs() const { return slots_.size(); }
  /// Observation dimensionality (shared by all environments).
  std::size_t observationDim() const;
  /// Number of categorical action heads (one per sizing parameter).
  std::size_t actionHeads() const;
  /// The engine every environment's requests go through.
  eval::EvalEngine& engine() { return *engine_; }

  /// Tick until the environments have made `target` requests in total, or
  /// one of them solves. Whenever a tick ends with at least `transitions`
  /// (>= 1) transitions buffered over all environments, the rollout is
  /// flattened (GAE(gamma, lambda) per environment, bootstrapped by
  /// `critic`), cleared, and handed to `update`.
  void run(const nn::Mlp& policy, const nn::Mlp& critic,
           std::size_t transitions, double gamma, double lambda,
           std::size_t target, const UpdateFn& update);

  /// Requests made over all environments.
  std::size_t totalSimulations() const;
  /// Whether a reset or step reached a satisfying design (collection
  /// stopped there).
  bool solved() const { return solveSims_ > 0; }
  /// Total requests at the solving request (0 when never solved).
  std::size_t simsAtFirstSolve() const { return solveSims_; }
  /// Best completed-episode return (-1e18 before any episode ends).
  double bestEpisodeReturn() const { return bestEpisodeReturn_; }
  /// Best Value of a stepped-to point (a solve's Value when solved, a
  /// solving reset included), and that point's sizing.
  double bestValue() const { return bestValue_; }
  const linalg::Vector& bestSizes() const { return bestSizes_; }

  /// Write the `collector` section: the engine, every environment slot
  /// (env state, policy-sampling RNG, pending observation, open-episode
  /// return) and the collection markers. While a rollout is in progress
  /// (transitions buffered, or a tick half done) also write the `rollout`
  /// section: the next environment, the buffered count and each
  /// environment's buffered transitions. Valid at any request boundary.
  void saveState(io::CheckpointWriter& w) const;
  /// Restore state written by saveState into a collector with the same
  /// number of environments (a mismatch throws io::CheckpointError); no
  /// `rollout` section means none was in progress.
  void restoreState(const io::CheckpointReader& r);

 private:
  /// Per-environment persistent state.
  struct EnvSlot {
    EnvSlot(const core::SizingProblem& problem, const EnvConfig& cfg,
            std::uint64_t envSeed, std::uint64_t rngSeed,
            eval::EvalEngine& engine)
        : env(problem, cfg, envSeed, engine), rng(rngSeed) {}
    SizingEnv env;
    std::mt19937_64 rng;        // policy-sampling stream
    linalg::Vector obs;         // observation awaiting the next action
    bool haveObs = false;       // false: the next request is a reset
    double episodeReturn = 0.0; // running return of the open episode
  };

  /// Environment e's next request (reset or policy step, made through
  /// `next` as its lookahead); records its transition and the markers.
  void request(std::size_t e, const nn::Mlp& policy, const nn::Mlp& critic,
               const eval::Lookahead& next);
  /// The sizing environment e would request next under `policy`, sampled
  /// on a copy of its streams.
  linalg::Vector nextSizes(std::size_t e, const nn::Mlp& policy) const;

  std::unique_ptr<eval::EvalEngine> engine_;
  std::vector<EnvSlot> slots_;
  std::vector<RolloutBuffer> buffers_;  // this rollout, one per environment
  std::size_t nextEnv_ = 0;       // environment of the next request
  std::size_t transitions_ = 0;   // buffered over all environments
  std::size_t solveSims_ = 0;
  double bestEpisodeReturn_ = -1e18;
  double bestValue_ = core::kFailedValue;
  linalg::Vector bestSizes_;
};

}  // namespace trdse::rl
