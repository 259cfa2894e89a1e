// AutoCkt-style sizing environment for the model-free baselines (Table I).
//
// Observation = [unit-space parameter position | per-spec normalized scores
// of the current point | per-spec normalized targets], matching AutoCkt's
// observation design as the paper prescribes for its A2C/PPO/TRPO baselines.
// Action = one of {decrement, hold, increment} per parameter on the discrete
// grid (multi-discrete). Reward = the same Value function as the model-based
// agent, plus a solve bonus; an episode ends on success or after a fixed
// horizon.
//
// The environment owns no engine: it borrows one (makeEnvEngine builds it)
// that several environments share, so a rollout collector can pack their
// simulations into one lane pass. resetSizes / stepSizes preview the next
// request's sizing without changing any state, which is what the
// collector's lookahead offers.
#pragma once

#include <memory>
#include <random>

#include "core/problem.hpp"
#include "core/value.hpp"
#include "eval/eval_engine.hpp"

namespace trdse::io {
class SectionReader;
class SectionWriter;
}  // namespace trdse::io

namespace trdse::rl {

/// Environment shaping parameters.
struct EnvConfig {
  std::size_t episodeLength = 50;  ///< steps before a forced episode end
  std::size_t strideDivisor = 16;  ///< per-move stride = max(1, steps/divisor)
  double solveBonus = 10.0;        ///< reward bonus at a satisfying design
  double failedSimScore = -1.0;  ///< per-spec score when simulation fails
};

/// What one environment step returns.
struct StepResult {
  linalg::Vector observation;  ///< observation after the move
  double reward = 0.0;         ///< Value-based reward (+ solve bonus)
  bool done = false;           ///< episode ended (solved or out of steps)
  bool solved = false;         ///< the design met every spec
};

/// The engine environments of `problem` share: one over its first corner
/// (Table I is single-PVT), backed by its fused evaluateBatch when it has
/// one, so the engine is sim::kSimLanes wide (1 without). RL episodes
/// revisit stride-lattice states constantly, so its memo hits often.
std::unique_ptr<eval::EvalEngine> makeEnvEngine(
    const core::SizingProblem& problem);

/// The AutoCkt-style multi-discrete sizing environment. Every simulation is
/// one evalOne request on a borrowed engine (see makeEnvEngine), which
/// several environments may share.
class SizingEnv {
 public:
  /// Requests corner 0 of `engine`, which must outlive the environment.
  /// Throws std::invalid_argument when config.strideDivisor is 0.
  SizingEnv(const core::SizingProblem& problem, EnvConfig config,
            std::uint64_t seed, eval::EvalEngine& engine);

  /// Observation vector length (params + 2 * specs).
  std::size_t observationDim() const;
  /// One categorical head per sizing parameter.
  std::size_t actionHeads() const { return problem_.space.dim(); }
  /// Sub-actions per head: decrement / hold / increment.
  static constexpr std::size_t kActionsPerHead = 3;

  /// Jump to a random grid point and start a new episode (one simulation).
  /// `next` is passed to the engine's evalOne as its lookahead. A reset onto
  /// a point that meets every spec is a solve, as a step there would be
  /// (currentSolves, simsAtFirstSolve).
  linalg::Vector reset(const eval::Lookahead& next = {});
  /// Apply one move per parameter and simulate the new point.
  StepResult step(const std::vector<std::size_t>& actions,
                  const eval::Lookahead& next = {});

  /// The sizing the next reset() simulates, drawn on a copy of the env's
  /// stream: what a caller's lookahead offers for a reset.
  linalg::Vector resetSizes() const;
  /// The sizing step(actions) would simulate; changes nothing.
  linalg::Vector stepSizes(const std::vector<std::size_t>& actions) const;

  /// Logical SPICE requests this env made (the Table I budget); cache hits
  /// count here but consume no EDA time.
  std::size_t simulationsUsed() const { return sims_; }
  /// Simulation count at the first solve, reset or step (0 when never
  /// solved).
  std::size_t simsAtFirstSolve() const { return simsAtFirstSolve_; }
  /// Whether the current point simulated cleanly and meets every spec.
  bool currentSolves() const { return currentOk_ && currentValue_ >= 0.0; }

  /// Raw (non-unit) sizing at the current grid position.
  const linalg::Vector& currentSizes() const { return sizes_; }
  /// Value of the current point (the reward without the solve bonus).
  double currentValue() const { return currentValue_; }

  /// Serialize the environment state — grid position, episode counters,
  /// RNG stream — into a checkpoint section (see docs/CHECKPOINTS.md). The
  /// engine is its owner's to save.
  void saveState(io::SectionWriter& w) const;
  /// Restore state written by saveState; subsequent steps continue the
  /// interrupted trajectory bitwise. Throws io::CheckpointError on
  /// malformed input or a grid-shape mismatch.
  void restoreState(io::SectionReader& r);

 private:
  std::vector<std::size_t> drawIndices(std::mt19937_64& rng) const;
  std::vector<std::size_t> movedIndices(
      const std::vector<std::size_t>& actions) const;
  linalg::Vector makeObservation() const;
  void simulateCurrent(const eval::Lookahead& next);

  const core::SizingProblem& problem_;
  EnvConfig config_;
  core::ValueFunction value_;
  eval::EvalEngine& engine_;
  std::mt19937_64 rng_;

  std::vector<std::size_t> indices_;  // grid position
  linalg::Vector sizes_;
  std::vector<double> scores_;  // per-spec normalized scores at current point
  double currentValue_ = 0.0;
  bool currentOk_ = false;
  std::size_t stepsInEpisode_ = 0;
  std::size_t sims_ = 0;
  std::size_t simsAtFirstSolve_ = 0;
};

}  // namespace trdse::rl
