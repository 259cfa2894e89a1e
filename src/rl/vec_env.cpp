#include "rl/vec_env.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "io/checkpoint.hpp"
#include "io/state_io.hpp"
#include "rl/actor_critic.hpp"

namespace trdse::rl {

namespace {
constexpr std::size_t kApH = SizingEnv::kActionsPerHead;
}  // namespace

ParallelRolloutCollector::ParallelRolloutCollector(
    const core::SizingProblem& problem, const EnvConfig& envConfig,
    std::uint64_t envSeed, std::uint64_t rngSeed)
    : engine_(makeEnvEngine(problem)) {
  const std::size_t n =
      std::max<std::size_t>(1, engine_->backend().batchWidth());
  slots_.reserve(n);
  for (std::size_t e = 0; e < n; ++e)
    slots_.emplace_back(problem, envConfig,
                        e == 0 ? envSeed : common::perTaskSeed(envSeed, e),
                        e == 0 ? rngSeed : common::perTaskSeed(rngSeed, e),
                        *engine_);
  buffers_.resize(n);
}

std::size_t ParallelRolloutCollector::observationDim() const {
  return slots_.front().env.observationDim();
}

std::size_t ParallelRolloutCollector::actionHeads() const {
  return slots_.front().env.actionHeads();
}

std::size_t ParallelRolloutCollector::totalSimulations() const {
  std::size_t total = 0;
  for (const EnvSlot& s : slots_) total += s.env.simulationsUsed();
  return total;
}

linalg::Vector ParallelRolloutCollector::nextSizes(
    std::size_t e, const nn::Mlp& policy) const {
  const EnvSlot& s = slots_[e];
  if (!s.haveObs) return s.env.resetSizes();
  std::mt19937_64 rng = s.rng;
  return s.env.stepSizes(
      samplePolicy(policy, s.obs, actionHeads(), kApH, rng).actions);
}

void ParallelRolloutCollector::request(std::size_t e, const nn::Mlp& policy,
                                       const nn::Mlp& critic,
                                       const eval::Lookahead& next) {
  EnvSlot& s = slots_[e];
  if (!s.haveObs) {
    s.obs = s.env.reset(next);
    s.haveObs = true;
    // A reset onto a spec-meeting point solves, as a step there would. Its
    // Value (>= 0) beats every earlier point's, none of which solved.
    if (s.env.currentSolves()) {
      bestValue_ = s.env.currentValue();
      bestSizes_ = s.env.currentSizes();
      solveSims_ = totalSimulations();
    }
    return;
  }
  const PolicySample ps = samplePolicy(policy, s.obs, actionHeads(), kApH,
                                       s.rng);
  const double v = critic.predict(s.obs)[0];
  StepResult sr = s.env.step(ps.actions, next);

  Transition t;
  t.observation = std::move(s.obs);
  t.actions = ps.actions;
  t.reward = sr.reward;
  t.valueEstimate = v;
  t.logProb = ps.logProb;
  t.done = sr.done;
  buffers_[e].transitions.push_back(std::move(t));
  ++transitions_;

  s.episodeReturn += sr.reward;
  s.obs = std::move(sr.observation);
  // The Value without the solve bonus, comparable with the other
  // strategies' worst-corner Value.
  if (s.env.currentValue() > bestValue_) {
    bestValue_ = s.env.currentValue();
    bestSizes_ = s.env.currentSizes();
  }
  if (sr.done) {
    bestEpisodeReturn_ = std::max(bestEpisodeReturn_, s.episodeReturn);
    s.episodeReturn = 0.0;
    s.haveObs = false;
  }
  if (sr.solved) solveSims_ = totalSimulations();
}

void ParallelRolloutCollector::run(const nn::Mlp& policy,
                                   const nn::Mlp& critic,
                                   std::size_t transitions, double gamma,
                                   double lambda, std::size_t target,
                                   const UpdateFn& update) {
  const eval::LookaheadScope scope(*engine_);
  const std::size_t n = slots_.size();
  const std::size_t rolloutSize = std::max<std::size_t>(1, transitions);
  for (std::size_t made = totalSimulations(); !solved() && made < target;
       ++made) {
    const std::size_t e = nextEnv_;
    // Lookahead: the tick's later environments, as many as the target lets
    // request after this one.
    const std::size_t ahead = std::min(n - 1 - e, target - made - 1);
    request(e, policy, critic,
            [&, e, ahead](std::size_t k, linalg::Vector& sizes,
                          std::size_t& corner) {
              if (k >= ahead) return false;
              sizes = nextSizes(e + 1 + k, policy);
              corner = 0;
              return true;
            });
    nextEnv_ = (e + 1) % n;
    if (nextEnv_ != 0) continue;
    // Tick boundary: lanes left over were offered for this tick's
    // environments, so the buffer never holds more than one tick.
    engine_->clearLookahead();
    if (solved() || transitions_ < rolloutSize) continue;
    for (std::size_t i = 0; i < n; ++i) {
      RolloutBuffer& b = buffers_[i];
      b.bootstrapValue = b.transitions.empty() || !slots_[i].haveObs
                             ? 0.0
                             : critic.predict(slots_[i].obs)[0];
    }
    const FlatRollout data = flattenRollouts(buffers_, gamma, lambda);
    for (RolloutBuffer& b : buffers_) b.clear();
    transitions_ = 0;
    update(data);
  }
}

void ParallelRolloutCollector::saveState(io::CheckpointWriter& cw) const {
  io::SectionWriter& w = cw.section("collector");
  w.u64(slots_.size());
  engine_->saveState(w);
  for (const EnvSlot& s : slots_) {
    s.env.saveState(w);
    io::writeRng(w, s.rng);
    w.vec(s.obs);
    w.boolean(s.haveObs);
    w.f64(s.episodeReturn);
  }
  w.u64(solveSims_);
  w.f64(bestEpisodeReturn_);
  w.f64(bestValue_);
  w.vec(bestSizes_);

  if (nextEnv_ == 0 && transitions_ == 0) return;
  io::SectionWriter& rw = cw.section("rollout");
  rw.u64(nextEnv_);
  rw.u64(transitions_);
  for (const RolloutBuffer& b : buffers_) {
    rw.u64(b.size());
    for (const Transition& t : b.transitions) {
      rw.vec(t.observation);
      rw.indexVec(t.actions);
      rw.f64(t.reward);
      rw.f64(t.valueEstimate);
      rw.f64(t.logProb);
      rw.boolean(t.done);
    }
  }
}

void ParallelRolloutCollector::restoreState(const io::CheckpointReader& cr) {
  io::SectionReader r = cr.section("collector");
  const std::uint64_t n = r.u64();
  if (n != slots_.size())
    r.fail("checkpoint holds " + std::to_string(n) +
           " environments, this collector has " +
           std::to_string(slots_.size()) +
           " (the engine's batch width) — they must match to resume");
  engine_->restoreState(r);
  for (EnvSlot& s : slots_) {
    s.env.restoreState(r);
    io::readRng(r, s.rng);
    s.obs = r.vec();
    s.haveObs = r.boolean();
    s.episodeReturn = r.f64();
  }
  solveSims_ = r.u64();
  bestEpisodeReturn_ = r.f64();
  bestValue_ = r.f64();
  bestSizes_ = r.vec();
  r.expectEnd();

  nextEnv_ = 0;
  transitions_ = 0;
  for (RolloutBuffer& b : buffers_) b.clear();
  if (!cr.hasSection("rollout")) return;
  io::SectionReader rr = cr.section("rollout");
  nextEnv_ = rr.u64();
  if (nextEnv_ >= slots_.size()) rr.fail("next environment out of range");
  const std::uint64_t buffered = rr.u64();
  for (RolloutBuffer& b : buffers_) {
    const std::uint64_t count = rr.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      Transition t;
      t.observation = rr.vec();
      t.actions = rr.indexVec();
      if (t.observation.size() != observationDim() ||
          t.actions.size() != actionHeads() ||
          std::any_of(t.actions.begin(), t.actions.end(),
                      [](std::size_t a) { return a >= kApH; }))
        rr.fail("buffered transition does not match the environments");
      t.reward = rr.f64();
      t.valueEstimate = rr.f64();
      t.logProb = rr.f64();
      t.done = rr.boolean();
      b.transitions.push_back(std::move(t));
    }
    transitions_ += count;
  }
  if (transitions_ != buffered)
    rr.fail("buffered count does not match the buffered transitions");
  rr.expectEnd();
}

}  // namespace trdse::rl
