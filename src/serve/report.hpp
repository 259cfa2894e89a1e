// The one run-report renderer — `trdse run` and the serve daemon must emit
// byte-identical summaries.
//
// The CI golden contract (scenarios/*.expected) says a scenario's stdout is a
// pure function of the scenario file: identical across --threads/--workers,
// across SIGKILL + resume, and — since PR 9 — across *transports*: a
// `trdse submit` of a scenario against a fresh daemon streams exactly the
// bytes `trdse run` would print. That only stays true if there is exactly one
// piece of code that turns results into text, so both paths feed a ReportInput
// through renderReport() instead of keeping two printf stacks in sync.
//
// The daemon reports its global cache's counters as *deltas* against the
// snapshot taken at admission (serve::Daemon), so a submission on a fresh
// daemon renders the same shard lines a standalone run would, while a warmed
// daemon's history stays out of the table.
#pragma once

#include <string>
#include <vector>

#include "orch/job_set.hpp"

namespace trdse::serve {

/// One `# shard NN:` line's worth of counters (absolute for `trdse run`,
/// admission-baseline deltas for the daemon).
struct ShardLine {
  std::size_t entries = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t inserts = 0;
};

/// Everything the summary renders. Fill from a Scheduler (trdse run) or from
/// a completed daemon submission (serve::Daemon).
struct ReportInput {
  std::string scenarioName;
  std::size_t jobCount = 0;
  std::size_t slice = 0;
  bool sharedCacheOn = false;
  std::vector<orch::JobResult> results;  ///< one row per job, job order
  /// Whether to render the cache summary + per-shard lines (a scheduler with
  /// the shared cache disabled renders neither).
  bool haveCache = false;
  std::vector<ShardLine> shards;
  /// Comma-joined job names per worker (distributed runs only; empty vector =
  /// no `# worker` lines — the daemon and in-process runs).
  std::vector<std::string> workerJobs;
};

/// Render the full deterministic summary: scenario header, the Table I/III
/// row per job, cache totals + per-shard breakdown, worker attribution, and
/// the `# failures` / `# quarantined` trailer lines. Formats are frozen —
/// scenarios/*.expected diff against these bytes.
std::string renderReport(const ReportInput& in);

/// Whether any row was quarantined (exit code 4 of `trdse run`/`trdse
/// submit`; both derive it from the same rows the report rendered).
bool anyQuarantined(const std::vector<orch::JobResult>& results);

}  // namespace trdse::serve
