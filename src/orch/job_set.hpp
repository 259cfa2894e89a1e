// Job construction of the orch::Scheduler: how a Scenario becomes live jobs
// — derived seeds, resolved cache scopes, strategy construction, engine
// wiring (retry policy, fault plan, shared cache attachment), and every
// validation error message.
//
// The process transport (orch/distributed.hpp) relies on buildJobs()
// running entirely in the coordinator before any fork: workers inherit the
// fully constructed jobs (strategies, engines, fault plans, problem
// closures) by copy-on-write, so nothing about a problem or strategy ever
// needs to cross the wire, and a job is the same object under either
// transport.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "eval/shared_cache.hpp"
#include "opt/strategy.hpp"
#include "orch/scenario.hpp"

namespace trdse::orch {

/// One job's report row after (or during) a run.
struct JobResult {
  std::string name;          ///< JobSpec::name
  std::string circuit;       ///< circuit label
  std::string strategy;      ///< strategy name
  std::uint64_t seed = 0;    ///< effective seed (explicit or derived)
  std::size_t budget = 0;    ///< total block allowance
  std::size_t rounds = 0;    ///< scheduling rounds the job was stepped in
  std::size_t published = 0; ///< results this job published to the shared cache
  /// Retry-exhausted evaluation failures the job's engine recorded.
  std::size_t failures = 0;
  bool quarantined = false;       ///< failure-isolated at a round barrier
  std::string quarantineReason;   ///< deterministic reason (empty otherwise)
  opt::StrategyOutcome outcome; ///< the common comparison row
};

/// One constructed job: spec + live strategy + scheduling state.
struct BuiltJob {
  JobSpec spec;
  std::unique_ptr<opt::Strategy> strategy;
  std::string scope;        ///< resolved shared-cache scope label
  std::size_t granted = 0;  ///< cumulative budget target handed out so far
  JobResult result;
};

/// The product of the construction pass: the scenario with derived seeds
/// resolved, the shared cache (null when disabled), and every job built.
struct JobSet {
  Scenario scenario;
  std::shared_ptr<eval::SharedEvalCache> shared;
  std::vector<BuiltJob> jobs;
};

/// Build every job's problem (circuits::Registry or JobSpec::makeProblem)
/// and strategy, derive absent seeds, and wire engines (retry, faults,
/// shared cache). Throws std::invalid_argument — prefixed
/// "scenario <source>:<line>: job \"name\":" — on unknown circuit/strategy
/// names, bad options, a journal over a non-checkpointing strategy, or any
/// other exception a problem factory or strategy constructor throws.
///
/// `externalCache` (serve daemon): attach jobs to a cache that outlives this
/// scenario instead of creating a fresh one — a warmed cache turns repeat
/// submissions into pure shared hits. Honored only when the scenario has
/// sharedCache on; the scenario's cacheShards is then irrelevant (the
/// external cache owns its geometry).
JobSet buildJobs(Scenario scenario,
                 std::shared_ptr<eval::SharedEvalCache> externalCache = nullptr);

}  // namespace trdse::orch
