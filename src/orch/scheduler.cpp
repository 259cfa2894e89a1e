#include "orch/scheduler.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "orch/distributed.hpp"
#include "orch/journal.hpp"

namespace trdse::orch {

namespace {

/// The deterministic quarantine reason for a job whose engine exceeded its
/// max_failures allowance.
std::string quarantineReasonFor(const JobSpec& spec,
                                const eval::EvalStats& stats,
                                const eval::FailureRecord& first) {
  return std::to_string(stats.failures) +
         " evaluation failure(s) exceed max_failures=" +
         std::to_string(spec.maxFailures) + "; first: request #" +
         std::to_string(first.request) + " on corner " +
         std::to_string(first.cornerIndex) + " failed after " +
         std::to_string(first.attempts) + " attempt(s) (" +
         std::string(sim::faultClassName(first.cls)) + ")";
}

}  // namespace

wire::JobRoundReport stepJob(BuiltJob& job, std::size_t index, bool withBlob) {
  wire::JobRoundReport rep;
  rep.jobIndex = index;
  // A throwing strategy is contained to its own report and quarantined at
  // the barrier — one sick job must not tear down the whole scenario.
  try {
    job.strategy->step(job.granted);
  } catch (const std::exception& e) {
    rep.stepError = e.what()[0] != '\0' ? e.what() : "unknown error";
  } catch (...) {
    rep.stepError = "non-standard exception";
  }
  const opt::StrategyOutcome& out = job.strategy->outcome();
  eval::EvalEngine& engine = job.strategy->engine();
  rep.finished = job.strategy->finished();
  rep.iterations = out.iterations;
  rep.solved = out.solved;
  rep.bestValue = out.bestValue;
  rep.stats = engine.stats();
  rep.firstFailure = engine.firstFailure();
  // A job whose step threw keeps its journal unpublished: its round was cut
  // short at some point, and skipping keeps the barrier state trivially
  // independent of how far it got (it never steps again).
  if (rep.stepError.empty()) rep.publishes = engine.drainPublishJournal();
  if (withBlob) rep.strategyBlob = job.strategy->saveCheckpointBlob();
  return rep;
}

wire::JobHarvest harvestJob(const BuiltJob& job, std::size_t index) {
  wire::JobHarvest h;
  h.jobIndex = index;
  h.outcome = job.strategy->outcome();
  h.engineLedger = job.strategy->engine().ledger();
  h.engineStats = job.strategy->engine().stats();
  return h;
}

Scheduler::Scheduler(Scenario scenario)
    : Scheduler(std::move(scenario), nullptr) {}

Scheduler::Scheduler(Scenario scenario,
                     std::shared_ptr<eval::SharedEvalCache> externalCache) {
  JobSet set = buildJobs(std::move(scenario), std::move(externalCache));
  scenario_ = std::move(set.scenario);
  shared_ = std::move(set.shared);
  jobs_ = std::move(set.jobs);
  reports_.resize(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) seedReport(i);
  if (scenario_.workers > 0)
    workers_ = std::make_unique<WorkerPool>(scenario_, jobs_, shared_);
}

Scheduler::~Scheduler() = default;

void Scheduler::enableJournal(const std::string& journalPath) {
  if (started_)
    throw std::logic_error(
        "Scheduler::enableJournal: must be called before the first "
        "run()/resume()");
  if (journalPath.empty())
    throw std::invalid_argument("Scheduler::enableJournal: empty path");
  for (const BuiltJob& job : jobs_)
    if (!job.strategy->supportsCheckpoint())
      throw std::invalid_argument(
          "Scheduler::enableJournal: job \"" + job.spec.name +
          "\" cannot run under a write-ahead journal: strategy \"" +
          job.spec.strategy + "\" does not support checkpointing");
  scenario_.journalPath = journalPath;
}

const std::vector<WorkerReport>& Scheduler::workerReports() const {
  static const std::vector<WorkerReport> kNone;
  return workers_ != nullptr ? workers_->attribution() : kNone;
}

const std::vector<std::string>& Scheduler::events() const {
  static const std::vector<std::string> kNone;
  return workers_ != nullptr ? workers_->events() : kNone;
}

void Scheduler::debugKillWorker(std::size_t worker, std::size_t round) {
  if (workers_ != nullptr) workers_->debugKill(worker, round);
}

void Scheduler::quarantine(BuiltJob& job, std::string reason) {
  job.result.quarantined = true;
  job.result.quarantineReason = std::move(reason);
}

void Scheduler::seedReport(std::size_t i) {
  reports_[i].jobIndex = i;
  reports_[i].finished = jobs_[i].strategy->finished();
  reports_[i].iterations = jobs_[i].strategy->outcome().iterations;
}

void Scheduler::writeJournalFile() {
  JournalState state;
  state.round = round_;
  state.jobs.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const BuiltJob& job = jobs_[i];
    JournalJobState js;
    js.granted = job.granted;
    js.rounds = job.result.rounds;
    js.published = job.result.published;
    js.quarantined = job.result.quarantined;
    js.quarantineReason = job.result.quarantineReason;
    js.strategyBlob = workers_ != nullptr
                          ? workers_->strategyBlob(i)
                          : job.strategy->saveCheckpointBlob();
    state.jobs.push_back(std::move(js));
  }
  // journalCache=false (serve daemon): the shared cache outlives this
  // scenario and is persisted separately; the journal then omits its section.
  writeJournal(scenario_.journalPath, scenario_, state,
               scenario_.journalCache ? shared_.get() : nullptr, events());
}

void Scheduler::resume(const std::string& journalPath) {
  if (started_)
    throw std::logic_error(
        "Scheduler::resume: must be called before the first run()");
  started_ = true;
  const JournalState state =
      readJournal(journalPath, scenario_,
                  scenario_.journalCache ? shared_.get() : nullptr);
  round_ = state.round;
  // Strategies restore coordinator-side; worker processes fork from this
  // restored image at the first run().
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    BuiltJob& job = jobs_[i];
    const JournalJobState& js = state.jobs[i];
    job.granted = js.granted;
    job.result.rounds = js.rounds;
    job.result.published = js.published;
    job.result.quarantined = js.quarantined;
    job.result.quarantineReason = js.quarantineReason;
    job.strategy->restoreCheckpointBlob(
        js.strategyBlob, journalPath + "[job " + job.spec.name + "]");
    seedReport(i);
  }
}

std::vector<JobResult> Scheduler::run(std::size_t maxRounds) {
  if (completed_)
    throw std::logic_error("Scheduler::run: a scheduler runs exactly once");
  started_ = true;

  // The thread transport's pool lives for this call; the process transport
  // forks its workers on the first call and keeps them until completion.
  std::optional<common::ThreadPool> pool;
  if (workers_ != nullptr)
    workers_->start();
  else
    pool.emplace(scenario_.threads);
  const bool journaling = !scenario_.journalPath.empty();
  std::vector<std::size_t> runnable;
  runnable.reserve(jobs_.size());
  std::vector<std::size_t> beforeIters(jobs_.size(), 0);
  std::size_t roundsThisCall = 0;

  while (maxRounds == 0 || roundsThisCall < maxRounds) {
    // Round-robin fairness: every unfinished, non-quarantined job, in
    // job-index order, gets the same additional slice of its own budget —
    // computed here, so transport timing can never bend a budget sequence.
    runnable.clear();
    for (std::size_t i = 0; i < jobs_.size(); ++i)
      if (!jobs_[i].result.quarantined && !reports_[i].finished)
        runnable.push_back(i);
    if (runnable.empty()) {
      completed_ = true;
      break;
    }
    ++round_;
    ++roundsThisCall;
    for (const std::size_t i : runnable) {
      beforeIters[i] = reports_[i].iterations;
      jobs_[i].granted =
          std::min(jobs_[i].spec.budget, jobs_[i].granted + scenario_.slice);
    }

    // Step phase: jobs are independent (own engine, own RNG streams) and the
    // shared cache is read-only during the round, so the fan-out is free of
    // cross-job races and the reports are thread- and worker-count
    // invariant.
    if (workers_ != nullptr) {
      workers_->step(round_, runnable, reports_);
    } else {
      pool->parallelFor(runnable.size(), [&](std::size_t r) {
        const std::size_t i = runnable[r];
        reports_[i] = stepJob(jobs_[i], i, false);
      });
    }

    // ---- Round barrier: every pass reads the reports, in job-index order.
    // Publish: results simulated this round become visible to *later*
    // rounds only — the shared-cache determinism contract. The observation
    // (built only for a hook) records the inserts as they happen.
    RoundObservation obs;
    for (const std::size_t i : runnable) {
      const wire::JobRoundReport& rep = reports_[i];
      ++jobs_[i].result.rounds;
      if (!rep.stepError.empty()) continue;
      if (shared_ != nullptr && !rep.publishes.empty()) {
        const std::size_t scope = shared_->scopeId(jobs_[i].scope);
        for (const wire::PublishEntry& e : rep.publishes)
          shared_->insert(scope, e.key, e.result);
        if (roundHook_)
          obs.publishes.push_back({jobs_[i].scope, rep.publishes});
      }
      jobs_[i].result.published += rep.publishes.size();
    }

    // Quarantine scan: reasons and the set of quarantined jobs come from
    // deterministic report state.
    for (const std::size_t i : runnable) {
      const wire::JobRoundReport& rep = reports_[i];
      if (!rep.stepError.empty())
        quarantine(jobs_[i], "step threw: " + rep.stepError);
      else if (rep.stats.failures > jobs_[i].spec.maxFailures)
        quarantine(jobs_[i], quarantineReasonFor(jobs_[i].spec, rep.stats,
                                                 rep.firstFailure));
    }

    // Stall guard: a job already granted its full budget that neither
    // finishes nor consumes anything in a round would loop forever.
    // Strategies signal inability to proceed via finished(), so hitting
    // this means a strategy contract violation — surface it loudly rather
    // than spinning.
    for (const std::size_t i : runnable) {
      const BuiltJob& job = jobs_[i];
      if (job.result.quarantined) continue;
      if (job.granted >= job.spec.budget && !reports_[i].finished &&
          reports_[i].iterations == beforeIters[i])
        throw std::logic_error("Scheduler: job \"" + job.spec.name +
                               "\" makes no progress (strategy \"" +
                               job.spec.strategy +
                               "\" violates the step() contract)");
    }

    // Workers bring their cache mirrors up to this barrier's publishes.
    if (workers_ != nullptr) workers_->barrier(runnable, reports_);

    // Write-ahead journal at every barrier, after every state transition of
    // this round is final. A kill at any point loses at most the round in
    // flight — never consistency.
    if (journaling) writeJournalFile();

    // Round hook, after the journal: an observer acting on the observation
    // (the daemon persisting its cache, streaming progress) sees a state the
    // journal can already reproduce.
    if (roundHook_) {
      obs.round = round_;
      obs.jobs.reserve(runnable.size());
      for (const std::size_t i : runnable) {
        const wire::JobRoundReport& rep = reports_[i];
        RoundObservation::JobProgress p;
        p.index = i;
        p.granted = jobs_[i].granted;
        p.iterations = rep.iterations;
        p.finished = rep.finished;
        p.quarantined = jobs_[i].result.quarantined;
        p.solved = rep.solved;
        p.sharedHits = rep.stats.sharedHits;
        p.simulated = rep.stats.simulated;
        p.bestValue = rep.bestValue;
        obs.jobs.push_back(p);
      }
      roundHook_(obs);
    }
  }

  // Completion check also when maxRounds cut the loop short before the
  // empty-runnable test re-ran.
  if (!completed_) {
    completed_ = true;
    for (std::size_t i = 0; i < jobs_.size(); ++i)
      if (!jobs_[i].result.quarantined && !reports_[i].finished) {
        completed_ = false;
        break;
      }
  }
  std::vector<JobResult> results = harvest();
  if (completed_ && workers_ != nullptr) workers_->shutdown();
  return results;
}

std::vector<JobResult> Scheduler::harvest() {
  std::vector<wire::JobHarvest> live;
  if (workers_ != nullptr) {
    live = workers_->harvest();
  } else {
    live.reserve(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i)
      live.push_back(harvestJob(jobs_[i], i));
  }
  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    JobResult& result = jobs_[i].result;
    result.outcome = std::move(live[i].outcome);
    result.failures = live[i].engineStats.failures;
    if (result.quarantined) {
      // A quarantined strategy never reached its own finish line, so its
      // cached outcome may predate the final harvest (e.g. an unsnapshotted
      // ledger). Its report must still account for what it consumed.
      result.outcome.ledger = std::move(live[i].engineLedger);
      result.outcome.evalStats = live[i].engineStats;
    }
    results.push_back(result);
  }
  return results;
}

}  // namespace trdse::orch
