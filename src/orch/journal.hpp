// Write-ahead scenario journal — crash-resumable orchestration.
//
// At every round barrier the Scheduler writes one atomic checkpoint file
// (container kind "orch-journal") holding everything a fresh process needs
// to continue the run bitwise:
//
//   [scenario]      fingerprint of the scheduled scenario — name, knobs,
//                   fault/retry config, and every job's resolved identity —
//                   so a journal can never silently resume a *different*
//                   scenario (mismatches fail naming the divergent field);
//   [progress]      the round counter and per-job grant/round/publish
//                   tallies plus quarantine flags and reasons;
//   [shared_cache]  the full SharedEvalCache contents and per-shard
//                   counters (present iff the scenario shares results and
//                   Scenario::journalCache is on);
//   [jobs]          one embedded strategy checkpoint blob per job.
//
// io::CheckpointWriter::writeFile is atomic (temp + rename + fsync), so a
// SIGKILL at any instant leaves either the previous journal or the new one —
// never a torn file. Because every piece of restored state is bitwise
// (strategy blobs, engine memos/ledgers/stats, shared-cache entries and
// counters, round tallies), a run killed and resumed from its journal
// produces byte-identical reports to the uninterrupted run.
#pragma once

#include <string>
#include <vector>

#include "eval/shared_cache.hpp"
#include "orch/scenario.hpp"

namespace trdse::orch {

/// Checkpoint-container kind tag of journal files.
inline constexpr char kJournalKind[] = "orch-journal";

/// Per-job progress snapshot carried by the journal.
struct JournalJobState {
  std::size_t granted = 0;      ///< cumulative budget target handed out
  std::size_t rounds = 0;       ///< rounds the job was stepped in
  std::size_t published = 0;    ///< shared-cache publishes so far
  bool quarantined = false;     ///< failure-isolated at a round barrier
  std::string quarantineReason; ///< deterministic reason string
  std::string strategyBlob;     ///< embedded strategy checkpoint (TDCK bytes)
};

/// Everything the journal records beyond the scenario fingerprint.
struct JournalState {
  std::size_t round = 0;  ///< rounds completed when the journal was written
  std::vector<JournalJobState> jobs;  ///< one entry per job, in job order
};

/// Atomically write the journal for `scenario` (seeds already resolved) to
/// `path`. `shared` may be null (scenario without a shared cache, or
/// Scenario::journalCache off). `events` is an optional informational log
/// (worker deaths and re-dispatches of the process transport); when
/// non-empty it lands in an "events" section that readers ignore for state
/// purposes — journals with and without it restore identically.
void writeJournal(const std::string& path, const Scenario& scenario,
                  const JournalState& state,
                  const eval::SharedEvalCache* shared,
                  const std::vector<std::string>& events = {});

/// Read and validate the journal at `path` against the live `scenario`
/// (fingerprint check), restore `shared` in place when non-null, and return
/// the progress + per-job blobs. Throws io::CheckpointError on a corrupt or
/// mismatched journal.
JournalState readJournal(const std::string& path, const Scenario& scenario,
                         eval::SharedEvalCache* shared);

}  // namespace trdse::orch
