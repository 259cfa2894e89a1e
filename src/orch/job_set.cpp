#include "orch/job_set.hpp"

#include <stdexcept>
#include <utility>

#include "circuits/registry.hpp"
#include "common/thread_pool.hpp"
#include "sim/fault.hpp"

namespace trdse::orch {

namespace {

/// Construction errors point at the offending job's [job] line (scenario-
/// file convention — consumers like the trdse CLI print them as-is).
[[noreturn]] void failJob(const Scenario& sc, const JobSpec& spec,
                          const std::string& what) {
  throw std::invalid_argument("scenario " + sc.sourceName + ":" +
                              std::to_string(spec.sourceLine) + ": job \"" +
                              spec.name + "\": " + what);
}

}  // namespace

JobSet buildJobs(Scenario scenario,
                 std::shared_ptr<eval::SharedEvalCache> externalCache) {
  JobSet set;
  set.scenario = std::move(scenario);
  Scenario& sc = set.scenario;
  if (sc.jobs.empty())
    throw std::invalid_argument("Scheduler: scenario defines no jobs");
  if (sc.slice == 0)
    throw std::invalid_argument("Scheduler: slice must be positive");

  if (sc.sharedCache)
    set.shared = externalCache != nullptr
                     ? std::move(externalCache)
                     : std::make_shared<eval::SharedEvalCache>(sc.cacheShards);

  // One plan shared by every job: fault schedules are keyed on (scope,
  // indices, corner, attempt), so jobs on the same circuit see identical
  // faults — the deterministic analogue of a flaky simulator license.
  std::shared_ptr<const sim::FaultPlan> faultPlan;
  if (sc.faultPlan.enabled())
    faultPlan = std::make_shared<const sim::FaultPlan>(sc.faultPlan);

  set.jobs.reserve(sc.jobs.size());
  for (std::size_t i = 0; i < sc.jobs.size(); ++i) {
    JobSpec& spec = sc.jobs[i];
    if (spec.seed == 0)
      spec.seed = common::perTaskSeed(sc.baseSeed, i);

    BuiltJob job;
    try {
      core::SizingProblem problem =
          spec.makeProblem
              ? spec.makeProblem()
              : circuits::Registry::global().makeProblem(spec.circuit);
      job.scope = !spec.cacheScope.empty() ? spec.cacheScope
                  : !spec.circuit.empty()  ? spec.circuit
                                           : problem.name;

      job.spec = spec;
      job.strategy = opt::makeStrategy(spec.strategy, std::move(problem),
                                       spec.seed, spec.budget, spec.options);
      if (!sc.journalPath.empty() && !job.strategy->supportsCheckpoint())
        throw std::invalid_argument(
            "cannot run under a write-ahead journal: strategy \"" +
            spec.strategy + "\" does not support checkpointing");
      eval::EvalEngine& engine = job.strategy->engine();
      engine.setRetryPolicy(sc.retry);
      if (faultPlan != nullptr) engine.injectFaults(faultPlan, job.scope);
      if (set.shared != nullptr)
        engine.attachSharedCache(set.shared, job.scope);

      job.result.circuit = !spec.circuit.empty() ? spec.circuit : job.scope;
    } catch (const std::exception& e) {
      // Whatever a circuit factory or strategy throws, the error names the
      // job and its [job] line.
      failJob(sc, spec, e.what());
    }

    job.result.name = spec.name;
    job.result.strategy = spec.strategy;
    job.result.seed = spec.seed;
    job.result.budget = spec.budget;
    set.jobs.push_back(std::move(job));
  }
  return set;
}

}  // namespace trdse::orch
