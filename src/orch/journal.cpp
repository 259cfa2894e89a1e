#include "orch/journal.hpp"

#include <string>
#include <type_traits>

#include "io/checkpoint.hpp"

namespace trdse::orch {

namespace {

/// Fingerprint field order — writeFingerprint and checkFingerprint must
/// mirror each other exactly; docs/ROBUSTNESS.md documents the layout.
/// `threads`, `workers`, and `worker_timeout` are deliberately absent:
/// per-job outcomes are invariant to all of them, so resuming under a
/// different thread/process count is legal (and a useful determinism test —
/// the crash-recovery CI smoke resumes a --workers run from a single-process
/// journal and vice versa).
void writeFingerprint(io::SectionWriter& w, const Scenario& sc) {
  w.str(sc.name);
  w.u64(sc.slice);
  w.u64(sc.baseSeed);
  w.boolean(sc.sharedCache);
  w.u64(sc.cacheShards);
  w.u64(sc.faultPlan.seed);
  w.f64(sc.faultPlan.timeoutRate);
  w.f64(sc.faultPlan.nonConvergenceRate);
  w.f64(sc.faultPlan.nonFiniteRate);
  w.f64(sc.faultPlan.timeoutStallSeconds);
  w.u64(sc.retry.maxAttempts);
  w.u64(sc.retry.backoffBase);
  w.u64(sc.retry.backoffCap);
  w.f64(sc.retry.timeoutSeconds);
  w.u64(sc.jobs.size());
  for (const JobSpec& j : sc.jobs) {
    w.str(j.name);
    w.str(j.circuit);
    w.str(j.strategy);
    w.str(j.cacheScope);
    w.u64(j.seed);
    w.u64(j.budget);
    w.u64(j.maxFailures);
    w.u64(j.options.size());
    for (const auto& [k, v] : j.options) {  // std::map: sorted, stable
      w.str(k);
      w.str(v);
    }
  }
}

/// Compare one journaled field against the live scenario; fail naming it.
template <typename T>
void match(io::SectionReader& r, const std::string& field, const T& live,
           const T& journaled) {
  if (!(live == journaled)) {
    if constexpr (std::is_same_v<T, std::string>) {
      r.fail("scenario fingerprint mismatch on " + field + ": journal has \"" +
             journaled + "\", this run has \"" + live + "\"");
    } else {
      r.fail("scenario fingerprint mismatch on " + field + ": journal has " +
             std::to_string(journaled) + ", this run has " +
             std::to_string(live));
    }
  }
}

void checkFingerprint(io::SectionReader& r, const Scenario& sc) {
  match(r, "name", sc.name, r.str());
  match(r, "slice", sc.slice, static_cast<std::size_t>(r.u64()));
  match(r, "base_seed", sc.baseSeed, static_cast<std::uint64_t>(r.u64()));
  match(r, "shared_cache", sc.sharedCache, r.boolean());
  match(r, "shards", sc.cacheShards, static_cast<std::size_t>(r.u64()));
  match(r, "fault_seed", sc.faultPlan.seed,
        static_cast<std::uint64_t>(r.u64()));
  match(r, "fault_timeout", sc.faultPlan.timeoutRate, r.f64());
  match(r, "fault_nonconv", sc.faultPlan.nonConvergenceRate, r.f64());
  match(r, "fault_nonfinite", sc.faultPlan.nonFiniteRate, r.f64());
  match(r, "fault_timeout_stall", sc.faultPlan.timeoutStallSeconds, r.f64());
  match(r, "retry_attempts", sc.retry.maxAttempts,
        static_cast<std::size_t>(r.u64()));
  match(r, "retry_backoff", sc.retry.backoffBase,
        static_cast<std::size_t>(r.u64()));
  match(r, "retry_backoff_cap", sc.retry.backoffCap,
        static_cast<std::size_t>(r.u64()));
  match(r, "retry_timeout", sc.retry.timeoutSeconds, r.f64());
  match(r, "job count", sc.jobs.size(), static_cast<std::size_t>(r.u64()));
  for (std::size_t i = 0; i < sc.jobs.size(); ++i) {
    const JobSpec& j = sc.jobs[i];
    const std::string p = "job \"" + j.name + "\" ";
    match(r, "job name", j.name, r.str());
    match(r, p + "circuit", j.circuit, r.str());
    match(r, p + "strategy", j.strategy, r.str());
    match(r, p + "cache_scope", j.cacheScope, r.str());
    match(r, p + "seed", j.seed, static_cast<std::uint64_t>(r.u64()));
    match(r, p + "budget", j.budget, static_cast<std::size_t>(r.u64()));
    match(r, p + "max_failures", j.maxFailures,
          static_cast<std::size_t>(r.u64()));
    match(r, p + "option count", j.options.size(),
          static_cast<std::size_t>(r.u64()));
    for (const auto& [k, v] : j.options) {
      match(r, p + "option key", k, r.str());
      match(r, p + "option \"" + k + "\"", v, r.str());
    }
  }
  r.expectEnd();
}

}  // namespace

void writeJournal(const std::string& path, const Scenario& scenario,
                  const JournalState& state,
                  const eval::SharedEvalCache* shared,
                  const std::vector<std::string>& events) {
  io::CheckpointWriter w(kJournalKind);
  writeFingerprint(w.section("scenario"), scenario);
  io::SectionWriter& p = w.section("progress");
  p.u64(state.round);
  p.u64(state.jobs.size());
  for (const JournalJobState& j : state.jobs) {
    p.u64(j.granted);
    p.u64(j.rounds);
    p.u64(j.published);
    p.boolean(j.quarantined);
    p.str(j.quarantineReason);
  }
  if (shared != nullptr) shared->saveState(w.section("shared_cache"));
  io::SectionWriter& jobs = w.section("jobs");
  jobs.u64(state.jobs.size());
  for (const JournalJobState& j : state.jobs) jobs.str(j.strategyBlob);
  // Informational only — worker deaths / re-dispatches under the process
  // transport. Readers skip it, so a journal written with workers resumes
  // in-process and vice versa.
  if (!events.empty()) {
    io::SectionWriter& ev = w.section("events");
    ev.u64(events.size());
    for (const std::string& e : events) ev.str(e);
  }
  w.writeFile(path);
}

JournalState readJournal(const std::string& path, const Scenario& scenario,
                         eval::SharedEvalCache* shared) {
  const io::CheckpointReader reader = io::CheckpointReader::fromFile(path);
  reader.expectKind(kJournalKind);
  {
    io::SectionReader sr = reader.section("scenario");
    checkFingerprint(sr, scenario);
  }
  JournalState state;
  io::SectionReader p = reader.section("progress");
  state.round = p.u64();
  const std::uint64_t n = p.u64();
  if (n != scenario.jobs.size())
    p.fail("progress covers " + std::to_string(n) + " jobs, scenario has " +
           std::to_string(scenario.jobs.size()));
  state.jobs.resize(n);
  for (JournalJobState& j : state.jobs) {
    j.granted = p.u64();
    j.rounds = p.u64();
    j.published = p.u64();
    j.quarantined = p.boolean();
    j.quarantineReason = p.str();
    if (j.quarantined && j.quarantineReason.empty())
      p.fail("quarantined job without a reason");
    if (!j.quarantined && !j.quarantineReason.empty())
      p.fail("quarantine reason on a job that is not quarantined");
  }
  p.expectEnd();
  if (shared != nullptr) {
    io::SectionReader sr = reader.section("shared_cache");
    shared->restoreState(sr);
    sr.expectEnd();
  }
  io::SectionReader jobs = reader.section("jobs");
  const std::uint64_t m = jobs.u64();
  if (m != n)
    jobs.fail("blob count " + std::to_string(m) +
              " disagrees with progress job count " + std::to_string(n));
  for (JournalJobState& j : state.jobs) j.strategyBlob = jobs.str();
  jobs.expectEnd();
  return state;
}

}  // namespace trdse::orch
