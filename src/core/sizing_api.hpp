// The designer-facing "SPICE decorator" (paper Section IV-F).
//
// Designers provide only what their manual flow already has: the sizes to
// tune and their ranges, the topology (an evaluation callback), the
// measurements, and per-corner specs — i.e. a SizingProblem. The session
// auto-configures the network architecture and search hyper-parameters from
// the problem shape and runs the full progressive-PVT trust-region search.
#pragma once

#include <string>

#include "core/pvt_search.hpp"
#include "core/problem.hpp"

namespace trdse::core {

/// Designer-tunable session settings (everything else is auto-scheduled).
struct SessionOptions {
  PvtStrategy strategy = PvtStrategy::kProgressiveHardest;  ///< corner policy
  std::size_t maxSimulations = 10000;  ///< EDA-block budget
  std::uint64_t seed = 1;              ///< seed for the whole session
  /// Override the auto-scheduled hyper-parameters when set.
  std::optional<ExplorerConfig> explorerOverride;
};

/// Result of one sizing session.
struct SessionReport {
  bool solved = false;         ///< every corner met spec
  /// Logical evaluations charged against the budget (real sims + cache
  /// hits); evalStats.simulated is the EDA blocks actually consumed.
  std::size_t simulations = 0;
  linalg::Vector sizes;        ///< final (or best) sizing
  std::vector<EvalResult> cornerEvals;  ///< final per-corner measurements
  double areaEstimate = 0.0;  ///< 0 when the problem has no area callback
  pvt::EdaLedger ledger;      ///< per-block accounting
  eval::EvalStats evalStats;  ///< cache hit/miss counts + backend timing
  std::string summary;        ///< human-readable multi-line report
};

/// Derive explorer hyper-parameters from the problem shape — the paper's
/// "automatic script" that constructs components "dynamically on the fly".
ExplorerConfig autoSchedule(const SizingProblem& problem);

/// One-call designer entry point: auto-schedule, search, report.
///
/// Sessions are resumable: run() continues the embedded search from wherever
/// it stands, so `resume(path)` + run() reproduces the uninterrupted run's
/// report bit for bit (the determinism contract of docs/CHECKPOINTS.md).
class SizingSession {
 public:
  /// Capture the problem and options (the problem is copied).
  SizingSession(SizingProblem problem, SessionOptions options = {});
  ~SizingSession();
  SizingSession(SizingSession&&) noexcept;
  SizingSession& operator=(SizingSession&&) noexcept;

  /// Run the search to completion or budget exhaustion; continues a
  /// restored (or previously budget-capped) search instead of restarting.
  SessionReport run();

  /// Snapshot the full session state to a versioned checkpoint file,
  /// written atomically. Before the first run() this snapshots a fresh
  /// search; after a budget-capped run() it captures surrogates, trust
  /// region, RNG streams, memo and ledger exactly.
  void save(const std::string& path);

  /// Restore a checkpoint written by save(); the next run() continues
  /// bitwise. Throws io::CheckpointError on corrupt files or a
  /// problem/config mismatch.
  void resume(const std::string& path);

  /// The problem this session optimizes.
  const SizingProblem& problem() const { return problem_; }

 private:
  /// Build the search lazily so save()/resume() work before run().
  PvtSearch& ensureSearch();

  SizingProblem problem_;
  SessionOptions options_;
  std::unique_ptr<PvtSearch> search_;
};

}  // namespace trdse::core
