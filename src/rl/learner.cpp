#include "rl/learner.hpp"

#include <array>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "io/checkpoint.hpp"
#include "io/state_io.hpp"

namespace trdse::rl {

namespace {

constexpr const char* kCheckpointKind = "rl-trainer";
constexpr std::size_t kApH = SizingEnv::kActionsPerHead;

// The hyper-parameters each algorithm's trajectory depends on.
void writeHyper(std::ostream& os, const A2cConfig& c) {
  os << "a2c nSteps=" << c.nSteps << " gamma=" << c.gamma
     << " gae=" << c.gaeLambda << " lr=" << c.learningRate
     << " vlr=" << c.valueLearningRate << " ent=" << c.entropyCoeff
     << " clip=" << c.maxGradNorm << " hidden=" << c.hidden;
}

void writeHyper(std::ostream& os, const PpoConfig& c) {
  os << "ppo horizon=" << c.horizon << " epochs=" << c.epochs
     << " minibatch=" << c.minibatch << " gamma=" << c.gamma
     << " gae=" << c.gaeLambda << " clipRatio=" << c.clipRatio
     << " lr=" << c.learningRate << " vlr=" << c.valueLearningRate
     << " ent=" << c.entropyCoeff << " clip=" << c.maxGradNorm
     << " hidden=" << c.hidden;
}

void writeHyper(std::ostream& os, const TrpoConfig& c) {
  os << "trpo horizon=" << c.horizon << " gamma=" << c.gamma
     << " gae=" << c.gaeLambda << " maxKl=" << c.maxKl
     << " damping=" << c.cgDamping << " cgIters=" << c.cgIterations
     << " lineSearch=" << c.lineSearchSteps << " vlr=" << c.valueLearningRate
     << " valueEpochs=" << c.valueEpochs << " hidden=" << c.hidden;
}

/// Single-line fingerprint of everything a trajectory depends on: the
/// problem shape (grids, measurements, specs, the training corner), the
/// environment shaping, the base seed and the algorithm's hyper-parameters.
/// Built when a snapshot is saved or restored, and compared verbatim.
std::string fingerprint(const core::SizingProblem& problem,
                        const RlAlgorithm& algorithm) {
  std::ostringstream os;
  os.precision(17);
  os << "problem=" << problem.name << " space=";
  for (const auto& p : problem.space.params())
    os << p.name << ":" << p.lo << ":" << p.hi << ":" << p.steps << ":"
       << p.logScale << ";";
  os << " meas=";
  for (const auto& m : problem.measurementNames) os << m << ";";
  os << " specs=";
  for (const auto& s : problem.specs)
    os << s.measurement << (s.kind == core::SpecKind::kAtLeast ? ">=" : "<=")
       << s.limit << ";";
  const sim::PvtCorner& c = problem.corners.front();
  os << " corner=" << static_cast<int>(c.corner) << ":" << c.vdd << ":"
     << c.tempC;
  std::visit(
      [&os](const auto& cfg) {
        const EnvConfig& env = cfg.env;
        os << " env=" << env.episodeLength << ":" << env.strideDivisor << ":"
           << env.solveBonus << ":" << env.failedSimScore;
        os << " seed=" << cfg.seed << " ";
        writeHyper(os, cfg);
      },
      algorithm);
  return os.str();
}

std::size_t transitionsOf(const A2cConfig& c) { return c.nSteps; }
std::size_t transitionsOf(const PpoConfig& c) { return c.horizon; }
std::size_t transitionsOf(const TrpoConfig& c) { return c.horizon; }

RlLearner::Seeds trainerSeeds(const RlAlgorithm& algorithm) {
  return std::visit(
      [](const auto& c) -> RlLearner::Seeds {
        using Cfg = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<Cfg, A2cConfig>)
          return {c.seed, c.seed + 7, c.seed + 11, c.seed + 13};
        else if constexpr (std::is_same_v<Cfg, PpoConfig>)
          return {c.seed, c.seed + 19, c.seed + 23, c.seed + 29, c.seed + 53};
        else
          return {c.seed, c.seed + 37, c.seed + 41, c.seed + 43};
      },
      algorithm);
}

/// Decode section `name` of `r` whole with `read`.
template <class Read>
void readSection(const io::CheckpointReader& r, const char* name, Read read) {
  io::SectionReader s = r.section(name);
  read(s);
  s.expectEnd();
}

/// The algorithm's hidden width. With none the networks would be
/// {obs, 0, 0, out}, whose outputs are their last bias alone, whatever the
/// observation.
std::size_t hiddenWidth(const RlAlgorithm& algorithm) {
  const std::size_t hidden =
      std::visit([](const auto& c) { return c.hidden; }, algorithm);
  if (hidden == 0)
    throw std::invalid_argument("RlLearner: hidden must be >= 1");
  return hidden;
}

void readNetInto(const io::CheckpointReader& r, const char* name,
                 nn::Mlp& net) {
  readSection(r, name, [&](io::SectionReader& s) {
    nn::Mlp loaded = io::readMlp(s);
    if (loaded.config().layerSizes != net.config().layerSizes)
      s.fail(std::string(name) +
             " network shape does not match this learner's configuration");
    net = std::move(loaded);
  });
}

}  // namespace

RlLearner::RlLearner(const core::SizingProblem& problem,
                     const RlAlgorithm& algorithm)
    : RlLearner(problem, algorithm,
                std::array{"a2c", "ppo", "trpo"}[algorithm.index()],
                trainerSeeds(algorithm)) {}

RlLearner::RlLearner(const core::SizingProblem& problem,
                     const RlAlgorithm& algorithm, std::string tag,
                     const Seeds& seeds)
    : problem_(problem),
      algorithm_(algorithm),
      tag_(std::move(tag)),
      collector_(problem,
                 std::visit([](const auto& c) { return c.env; }, algorithm),
                 seeds.envs, seeds.sampling),
      policy_(makePolicyNet(collector_.observationDim(),
                            collector_.actionHeads(), kApH,
                            hiddenWidth(algorithm), seeds.policy)),
      critic_(makeValueNet(collector_.observationDim(),
                           hiddenWidth(algorithm), seeds.critic)),
      criticOpt_(std::visit([](const auto& c) { return c.valueLearningRate; },
                            algorithm)) {
  if (const auto* a2c = std::get_if<A2cConfig>(&algorithm_))
    policyOpt_.emplace(a2c->learningRate);
  if (const auto* ppo = std::get_if<PpoConfig>(&algorithm_)) {
    policyOpt_.emplace(ppo->learningRate);
    shuffleRng_.emplace(seeds.shuffle);
  }
}

void RlLearner::run(std::size_t target) {
  std::visit(
      [&](const auto& cfg) {
        using Cfg = std::decay_t<decltype(cfg)>;
        collector_.run(
            policy_, critic_, transitionsOf(cfg), cfg.gamma, cfg.gaeLambda,
            target, [&](const FlatRollout& data) {
              if constexpr (std::is_same_v<Cfg, A2cConfig>)
                a2cUpdateBatched(policy_, critic_, *policyOpt_, criticOpt_,
                                 data, cfg);
              else if constexpr (std::is_same_v<Cfg, PpoConfig>)
                ppoUpdateBatched(policy_, critic_, *policyOpt_, criticOpt_,
                                 data, cfg, *shuffleRng_);
              else
                trpoUpdate(policy_, critic_, criticOpt_, data, cfg);
              ++updates_;
            });
      },
      algorithm_);
}

RlTrainOutcome RlLearner::outcome() const {
  RlTrainOutcome out;
  out.totalSimulations = collector_.totalSimulations();
  out.solved = collector_.solved();
  out.simulationsToSolve =
      out.solved ? collector_.simsAtFirstSolve() : out.totalSimulations;
  out.bestEpisodeReturn = collector_.bestEpisodeReturn();
  return out;
}

std::string RlLearner::save() const {
  io::CheckpointWriter w(kCheckpointKind);
  io::SectionWriter& mw = w.section("meta");
  mw.str(tag_);
  mw.str(fingerprint(problem_, algorithm_));
  mw.u64(collector_.numEnvs());
  mw.u64(updates_);

  io::writeMlp(w.section("policy"), policy_);
  io::writeMlp(w.section("critic"), critic_);
  if (policyOpt_) io::writeAdam(w.section("policy-opt"), *policyOpt_);
  io::writeAdam(w.section("critic-opt"), criticOpt_);
  if (shuffleRng_) io::writeRng(w.section("shuffle-rng"), *shuffleRng_);
  collector_.saveState(w);
  return w.finish();
}

void RlLearner::restore(const std::string& blob, const std::string& source) {
  const io::CheckpointReader r(source, blob);
  r.expectKind(kCheckpointKind);

  io::SectionReader mr = r.section("meta");
  const std::string tag = mr.str();
  if (tag != tag_)
    mr.fail("checkpoint was written by the '" + tag +
            "' learner, cannot resume it with '" + tag_ + "'");
  const std::string print = mr.str();
  const std::string expected = fingerprint(problem_, algorithm_);
  if (print != expected)
    mr.fail("learner fingerprint mismatch — the checkpoint was saved from a "
            "different problem/configuration\n  checkpoint: " + print +
            "\n  this run:   " + expected);
  const std::uint64_t numEnvs = mr.u64();
  if (numEnvs != collector_.numEnvs())
    mr.fail("checkpoint has " + std::to_string(numEnvs) +
            " environments, this learner has " +
            std::to_string(collector_.numEnvs()) +
            " (the engine's batch width)");
  const std::uint64_t updates = mr.u64();
  mr.expectEnd();

  readNetInto(r, "policy", policy_);
  readNetInto(r, "critic", critic_);
  if (policyOpt_)
    readSection(r, "policy-opt", [&](io::SectionReader& s) {
      io::readAdam(s, *policyOpt_, policy_.parameterCount());
    });
  readSection(r, "critic-opt", [&](io::SectionReader& s) {
    io::readAdam(s, criticOpt_, critic_.parameterCount());
  });
  if (shuffleRng_)
    readSection(r, "shuffle-rng",
                [&](io::SectionReader& s) { io::readRng(s, *shuffleRng_); });
  collector_.restoreState(r);
  updates_ = updates;
}

RlTrainOutcome train(const core::SizingProblem& problem,
                     const RlAlgorithm& algorithm,
                     std::size_t maxSimulations) {
  RlLearner learner(problem, algorithm);
  learner.run(maxSimulations);
  return learner.outcome();
}

}  // namespace trdse::rl
