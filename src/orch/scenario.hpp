// Declarative multi-job scenarios — what the orchestrator runs.
//
// A scenario is N sizing jobs (circuit + strategy + seed + budget) plus the
// scheduling knobs, written as a small line-based text file so batch
// comparisons (the paper's Tables I/III layouts) are data, not code:
//
//     # comparison on the 45nm opamp
//     name    = opamp_bakeoff
//     threads = 4          # scheduler workers
//     slice   = 16         # EDA blocks granted per job per round
//     shards  = 16         # shared-cache stripes (shared_cache = off|on)
//
//     [job]
//     name     = trm_drl
//     circuit  = two_stage_opamp   # circuits::Registry name
//     strategy = pvt_search        # opt::makeStrategy name
//     seed     = 1
//     budget   = 400
//     opt.pool = progressive_hardest   # strategy-specific option
//
//     [job]
//     name     = random
//     circuit  = two_stage_opamp
//     strategy = random_search
//     budget   = 400               # seed omitted: derived from job index
//
// Parsing is strict: unknown keys, malformed numbers, duplicate job names,
// or a job without circuit/strategy throw std::invalid_argument naming the
// offending line. Programmatic callers can instead fill the structs directly
// (JobSpec::makeProblem admits problems that exist only in code).
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "eval/eval_engine.hpp"
#include "sim/fault.hpp"

namespace trdse::orch {

/// One schedulable search job.
struct JobSpec {
  std::string name;      ///< unique row label in reports
  std::string circuit;   ///< circuits::Registry name (ignored with makeProblem)
  /// Inline problem override for problems that exist only in code; when set,
  /// `circuit` is only a label. The factory must be pure (it may be invoked
  /// from a scheduler construction pass).
  std::function<core::SizingProblem()> makeProblem;
  std::string strategy;  ///< opt::makeStrategy name
  /// Shared-cache namespace; jobs sharing results must agree on it. Empty =
  /// the circuit name (or the problem name for inline problems).
  std::string cacheScope;
  /// 0 = derive deterministically from (scenario baseSeed, job index).
  std::uint64_t seed = 0;
  std::size_t budget = 1000;  ///< total logical EDA-block allowance
  /// Retry-exhausted evaluation failures this job tolerates before the
  /// scheduler quarantines it (checked at round barriers). 0 = quarantine on
  /// the first failure.
  std::size_t maxFailures = 0;
  /// Strategy-specific overrides (the `opt.` keys of the file format).
  std::map<std::string, std::string> options;
  /// Line of this job's [job] header in the source file (0 for programmatic
  /// specs) — lets post-parse validation errors still point at the file.
  std::size_t sourceLine = 0;
};

/// Largest `retry_attempts` a scenario may ask for: every attempt is a
/// lockstep backend round, and a request past the bound stops paying for
/// anything but backoff at the cap.
constexpr std::size_t kMaxRetryAttempts = 100;

/// A parsed scenario: scheduling knobs + the job list.
struct Scenario {
  std::string name = "scenario";
  /// Scheduler threads, the round's calling thread included: at most this
  /// many jobs — or pieces of one job's step, when a strategy fans out on
  /// the round's pool — run at once. 1 = serial (inline), 0 = hardware
  /// concurrency. Per-job outcomes are identical for any value.
  std::size_t threads = 1;
  /// Worker *processes* the Scheduler forks to step rounds: 0 = step jobs
  /// on the in-process thread pool. Jobs shard across workers by index; like
  /// `threads`, per-job outcomes, ledgers, and shared-cache counters are
  /// bitwise identical for any value (docs/ORCHESTRATION.md, "Transports").
  std::size_t workers = 0;
  /// Wall-clock seconds the coordinator waits for a worker's round before
  /// declaring it stalled, killing and re-dispatching it (0 = wait forever).
  /// Like retry_timeout, a wall-clock knob — outcomes stay deterministic
  /// because re-dispatch replays the identical round, but *when* a stall
  /// fires is not part of the contract.
  double workerTimeoutSeconds = 0.0;
  /// EDA blocks granted to every unfinished job per scheduling round (the
  /// fairness quantum).
  std::size_t slice = 16;
  bool sharedCache = true;     ///< cross-job result sharing on/off
  std::size_t cacheShards = 16;  ///< SharedEvalCache stripe count
  std::uint64_t baseSeed = 1;  ///< feeds derived per-job seeds
  /// Deterministic fault injection applied to every job's engine (all rates
  /// zero = no injection; `fault_*` keys).
  sim::FaultPlanConfig faultPlan;
  /// Retry/timeout policy applied to every job's engine (`retry_*` keys;
  /// `retry_attempts` in [1, kMaxRetryAttempts]).
  eval::RetryPolicy retry;
  /// Write-ahead journal path for crash-resumable runs, rewritten at every
  /// round barrier (empty = off; requires every job's strategy to support
  /// checkpointing).
  std::string journalPath;
  /// Whether the journal embeds the shared cache. The serve daemon turns
  /// this off: its cache outlives any one submission and each barrier's
  /// publishes are persisted in the daemon's own state log, so embedding a
  /// full copy in every job journal would only amplify writes (and a resume
  /// would clobber entries other submissions added since). Programmatic knob —
  /// not a scenario-file key and, like `threads`, excluded from the journal
  /// fingerprint; a journal written either way restores under either
  /// setting of the *other* fields, but this flag must match between write
  /// and resume (the cache section is present iff it was on).
  bool journalCache = true;
  /// Source label the scenario was parsed from (error-message prefix for
  /// post-parse validation, e.g. scheduler construction).
  std::string sourceName = "scenario";
  std::vector<JobSpec> jobs;
};

/// Parse the text format above. `source` labels error messages (path/name).
Scenario parseScenario(std::istream& in, const std::string& source);
/// Parse from a string (tests, embedded scenarios).
Scenario parseScenarioText(const std::string& text, const std::string& source);
/// Read and parse a file; throws std::invalid_argument when unreadable.
Scenario loadScenarioFile(const std::string& path);

}  // namespace trdse::orch
