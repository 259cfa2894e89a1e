#include "rl/sizing_env.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "io/state_io.hpp"

namespace trdse::rl {

std::unique_ptr<eval::EvalEngine> makeEnvEngine(
    const core::SizingProblem& problem) {
  assert(!problem.corners.empty());
  return std::make_unique<eval::EvalEngine>(
      std::make_shared<eval::CallbackBackend>(
          problem.evaluate, "env:" + problem.name, problem.evaluateBatch),
      problem.space, std::vector<sim::PvtCorner>{problem.corners.front()},
      eval::makeMeetsSpec(
          core::ValueFunction(problem.measurementNames, problem.specs)));
}

SizingEnv::SizingEnv(const core::SizingProblem& problem, EnvConfig config,
                     std::uint64_t seed, eval::EvalEngine& engine)
    : problem_(problem),
      config_(config),
      value_(problem.measurementNames, problem.specs),
      engine_(engine),
      rng_(seed) {
  // Every move divides a parameter's step count by it.
  if (config_.strideDivisor == 0)
    throw std::invalid_argument("SizingEnv: strideDivisor must be >= 1");
}

std::size_t SizingEnv::observationDim() const {
  return problem_.space.dim() + 2 * problem_.specs.size();
}

void SizingEnv::simulateCurrent(const eval::Lookahead& next) {
  sizes_ = problem_.space.fromIndices(indices_);
  const core::EvalResult r =
      engine_.evalOne(0, sizes_, pvt::BlockKind::kSearch, next);
  ++sims_;
  currentOk_ = r.ok;
  if (r.ok) {
    scores_ = value_.perSpecScores(r.measurements);
    currentValue_ = value_(r.measurements);
  } else {
    scores_.assign(problem_.specs.size(), config_.failedSimScore);
    currentValue_ = config_.failedSimScore *
                    static_cast<double>(problem_.specs.size());
  }
  if (currentSolves() && simsAtFirstSolve_ == 0) simsAtFirstSolve_ = sims_;
}

linalg::Vector SizingEnv::makeObservation() const {
  linalg::Vector obs;
  obs.reserve(observationDim());
  const linalg::Vector unit = problem_.space.toUnit(sizes_);
  obs.insert(obs.end(), unit.begin(), unit.end());
  for (double s : scores_) obs.push_back(std::clamp(s, -1.0, 0.0));
  // Normalized targets: constant in a fixed-spec experiment but kept for
  // parity with AutoCkt's observation (which carries the sampled target).
  for (const auto& spec : problem_.specs)
    obs.push_back(std::tanh(spec.limit / (std::abs(spec.limit) + 1.0)));
  return obs;
}

std::vector<std::size_t> SizingEnv::drawIndices(std::mt19937_64& rng) const {
  std::vector<std::size_t> indices(problem_.space.dim());
  for (std::size_t d = 0; d < indices.size(); ++d) {
    std::uniform_int_distribution<std::size_t> dist(
        0, problem_.space.param(d).steps - 1);
    indices[d] = dist(rng);
  }
  return indices;
}

std::vector<std::size_t> SizingEnv::movedIndices(
    const std::vector<std::size_t>& actions) const {
  assert(actions.size() == problem_.space.dim());
  std::vector<std::size_t> indices = indices_;
  for (std::size_t d = 0; d < actions.size(); ++d) {
    const std::size_t steps = problem_.space.param(d).steps;
    const long stride = std::max<long>(
        1, static_cast<long>(steps / config_.strideDivisor));
    long idx = static_cast<long>(indices[d]);
    if (actions[d] == 0) idx -= stride;
    if (actions[d] == 2) idx += stride;
    indices[d] = static_cast<std::size_t>(
        std::clamp<long>(idx, 0, static_cast<long>(steps) - 1));
  }
  return indices;
}

linalg::Vector SizingEnv::resetSizes() const {
  std::mt19937_64 rng = rng_;
  return problem_.space.fromIndices(drawIndices(rng));
}

linalg::Vector SizingEnv::stepSizes(
    const std::vector<std::size_t>& actions) const {
  return problem_.space.fromIndices(movedIndices(actions));
}

linalg::Vector SizingEnv::reset(const eval::Lookahead& next) {
  indices_ = drawIndices(rng_);
  stepsInEpisode_ = 0;
  simulateCurrent(next);
  return makeObservation();
}

StepResult SizingEnv::step(const std::vector<std::size_t>& actions,
                           const eval::Lookahead& next) {
  indices_ = movedIndices(actions);
  simulateCurrent(next);
  ++stepsInEpisode_;

  StepResult r;
  r.solved = currentSolves();
  r.reward = currentValue_ + (r.solved ? config_.solveBonus : 0.0);
  r.done = r.solved || stepsInEpisode_ >= config_.episodeLength;
  r.observation = makeObservation();
  return r;
}

void SizingEnv::saveState(io::SectionWriter& w) const {
  io::writeRng(w, rng_);
  w.indexVec(indices_);
  w.vec(sizes_);
  w.vec(linalg::Vector(scores_.begin(), scores_.end()));
  w.f64(currentValue_);
  w.boolean(currentOk_);
  w.u64(stepsInEpisode_);
  w.u64(sims_);
  w.u64(simsAtFirstSolve_);
}

void SizingEnv::restoreState(io::SectionReader& r) {
  io::readRng(r, rng_);
  // Empty position, sizing and scores = saved before the first reset (a
  // snapshot mid-tick can catch later environments there); anything else
  // must match the problem (scores feed the observation vector the policy
  // net consumes).
  indices_ = r.indexVec();
  if (!indices_.empty() && indices_.size() != problem_.space.dim())
    r.fail("environment grid position dimensionality mismatch");
  for (std::size_t d = 0; d < indices_.size(); ++d)
    if (indices_[d] >= problem_.space.param(d).steps)
      r.fail("environment grid index out of range");
  sizes_ = r.vec();
  if (sizes_.size() != indices_.size())
    r.fail("environment sizing dimensionality mismatch");
  const linalg::Vector scores = r.vec();
  if (!scores.empty() && scores.size() != problem_.specs.size())
    r.fail("environment per-spec score count does not match the spec table");
  scores_.assign(scores.begin(), scores.end());
  currentValue_ = r.f64();
  currentOk_ = r.boolean();
  stepsInEpisode_ = r.u64();
  sims_ = r.u64();
  simsAtFirstSolve_ = r.u64();
}

}  // namespace trdse::rl
