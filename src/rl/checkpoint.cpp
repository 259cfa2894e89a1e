#include "rl/checkpoint.hpp"

#include <sstream>

#include "io/checkpoint.hpp"
#include "io/state_io.hpp"

namespace trdse::rl {

std::string trainerFingerprint(const core::SizingProblem& problem,
                               const EnvConfig& env, std::uint64_t seed,
                               const std::string& hyper) {
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
  os << " env=" << env.episodeLength << ":" << env.strideDivisor << ":"
     << env.solveBonus << ":" << env.failedSimScore << ":" << env.cacheEvals;
  os << " seed=" << seed << " " << hyper;
  return os.str();
}

namespace {

constexpr const char* kCheckpointKind = "rl-trainer";

void readNetInto(io::SectionReader& r, nn::Mlp& net, const char* label) {
  nn::Mlp loaded = io::readMlp(r);
  if (loaded.config().layerSizes != net.config().layerSizes)
    r.fail(std::string(label) +
           " network shape does not match this trainer's configuration");
  net = std::move(loaded);
}

}  // namespace

void saveTrainerCheckpoint(const std::string& path, const TrainerState& s) {
  io::CheckpointWriter w(kCheckpointKind);

  io::SectionWriter& mw = w.section("meta");
  mw.str(s.algo);
  mw.str(s.fingerprint);
  mw.u64(s.collector->numEnvs());
  mw.u64(*s.updates);

  io::writeMlp(w.section("policy"), *s.policy);
  io::writeMlp(w.section("critic"), *s.critic);
  if (s.policyOpt) io::writeAdam(w.section("policy-opt"), *s.policyOpt);
  io::writeAdam(w.section("critic-opt"), *s.criticOpt);
  if (s.shuffleRng) io::writeRng(w.section("shuffle-rng"), *s.shuffleRng);
  s.collector->saveState(w.section("collector"));

  w.writeFile(path);
}

void restoreTrainerCheckpoint(const std::string& path, const TrainerState& s) {
  const io::CheckpointReader r = io::CheckpointReader::fromFile(path);
  r.expectKind(kCheckpointKind);

  io::SectionReader mr = r.section("meta");
  const std::string algo = mr.str();
  if (algo != s.algo)
    mr.fail("checkpoint was written by the '" + algo +
            "' trainer, cannot resume it with '" + s.algo + "'");
  const std::string fingerprint = mr.str();
  if (fingerprint != s.fingerprint)
    mr.fail("trainer fingerprint mismatch — the checkpoint was saved from a "
            "different problem/configuration\n  checkpoint: " + fingerprint +
            "\n  this run:   " + s.fingerprint);
  const std::uint64_t numEnvs = mr.u64();
  if (numEnvs != s.collector->numEnvs())
    mr.fail("checkpoint has " + std::to_string(numEnvs) +
            " environments, this trainer has " +
            std::to_string(s.collector->numEnvs()) +
            " (the engine's batch width)");
  *s.updates = mr.u64();
  mr.expectEnd();

  io::SectionReader pr = r.section("policy");
  readNetInto(pr, *s.policy, "policy");
  pr.expectEnd();
  io::SectionReader cr = r.section("critic");
  readNetInto(cr, *s.critic, "critic");
  cr.expectEnd();

  if (s.policyOpt) {
    io::SectionReader por = r.section("policy-opt");
    io::readAdam(por, *s.policyOpt, s.policy->parameterCount());
    por.expectEnd();
  }
  io::SectionReader cor = r.section("critic-opt");
  io::readAdam(cor, *s.criticOpt, s.critic->parameterCount());
  cor.expectEnd();

  if (s.shuffleRng) {
    io::SectionReader srr = r.section("shuffle-rng");
    io::readRng(srr, *s.shuffleRng);
    srr.expectEnd();
  }

  io::SectionReader colr = r.section("collector");
  s.collector->restoreState(colr);
  colr.expectEnd();
}

}  // namespace trdse::rl
