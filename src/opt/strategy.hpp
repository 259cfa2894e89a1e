// The unified search-strategy interface — every algorithm that spends EDA
// blocks behind one contract.
//
// The paper's headline result is a *comparison* (TRM-DRL vs. random search
// vs. customized tree-BO under one budget, Tables I/III–V), and comparisons
// are only honest when every contender charges its blocks through the same
// meter. An opt::Strategy is a resumable search: step(target) advances it
// until the cumulative logical-evaluation count reaches the target (clamped
// to the strategy's fixed total budget), the CSP is solved, or the strategy
// cannot make further progress. Every evaluation routes through an
// eval::EvalEngine, so all strategies get identical accounting — a
// pvt::EdaLedger block per logical request, EvalStats hit/miss counters —
// and produce one comparable StrategyOutcome.
//
// Resumability contract: for any split 0 < k < n,
//     step(k); step(n)   ==   step(n)     (bitwise, outcome and ledger)
// which is what lets the orch::Scheduler multiplex many strategies in fair
// budget slices without perturbing any of their trajectories.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/problem.hpp"
#include "core/value.hpp"
#include "eval/eval_engine.hpp"
#include "pvt/ledger.hpp"

namespace trdse::opt {

/// The common result every strategy emits — the row schema of the paper's
/// comparison tables. `iterations` is the logical evaluation count the
/// budget was charged for; ledger/evalStats carry the block-level accounting
/// harvested from the strategy's EvalEngine (ledger.totalBlocks() ==
/// iterations for every engine-backed strategy). The scalar fields and
/// evalStats refresh on every step(); the ledger — the one member that grows
/// with the budget — snapshots when the strategy finishes, so budget-sliced
/// scheduling stays linear in the budget. Mid-run callers read the live
/// timeline via Strategy::engine().ledger().
struct StrategyOutcome {
  bool solved = false;         ///< every sign-off corner met spec
  std::size_t iterations = 0;  ///< logical evaluations consumed (EDA blocks)
  linalg::Vector sizes;        ///< solving (or best-so-far) sizing
  double bestValue = core::kFailedValue;  ///< best worst-corner Value seen
  linalg::Vector bestMeasurements;  ///< worst-corner measurements of the best
  pvt::EdaLedger ledger;            ///< per-block timeline (Fig. 3 / Table III)
  eval::EvalStats evalStats;        ///< cache hit/miss + backend timing
};

/// Abstract resumable search algorithm (see file header for the contract).
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Stable algorithm label ("pvt_search", "random_search", ...).
  virtual std::string_view name() const = 0;

  /// The fixed total logical-evaluation budget. Budget-dependent schedules
  /// (e.g. TreeBayesOpt's UCB kappa decay) are functions of this constant,
  /// never of an individual step() target, so slicing cannot bend them.
  virtual std::size_t budget() const = 0;

  /// Advance until outcome().iterations >= min(target, budget()), the
  /// problem is solved, or no further progress is possible. Returns the
  /// outcome so far (also available via outcome()).
  virtual const StrategyOutcome& step(std::size_t target) = 0;

  /// Run to completion: step(budget()).
  const StrategyOutcome& run() { return step(budget()); }

  /// The outcome accumulated so far.
  virtual const StrategyOutcome& outcome() const = 0;

  /// Solved, budget exhausted, or unable to proceed — step() is a no-op.
  virtual bool finished() const = 0;

  /// The engine all of this strategy's evaluations route through (shared-
  /// cache attachment, accounting inspection).
  virtual eval::EvalEngine& engine() = 0;
  /// Read-only engine access.
  const eval::EvalEngine& engine() const {
    return const_cast<Strategy*>(this)->engine();
  }

  /// Whether the checkpoint blob pair below is implemented.
  virtual bool supportsCheckpoint() const { return false; }
  /// Snapshot the full strategy state as a checkpoint blob (full TDCK
  /// container bytes); a restored strategy continues bitwise. The
  /// orchestrator's write-ahead journal stores one blob per job. Throws
  /// std::logic_error when unsupported (see supportsCheckpoint).
  virtual std::string saveCheckpointBlob() const;
  /// Restore a blob written by saveCheckpointBlob (same problem/config);
  /// `source` labels error messages (e.g. "journal.ckpt[job3]").
  virtual void restoreCheckpointBlob(const std::string& blob,
                                     const std::string& source);
};

/// Registered strategy names, in factory order: "pvt_search" (TRM-DRL),
/// "random_search", "tree_bayes_opt", "rl_policy".
std::vector<std::string> strategyNames();

/// Build a strategy by name over a problem. `options` carries strategy-
/// specific overrides as string key/value pairs (the scenario-file surface;
/// see docs/ORCHESTRATION.md for the per-strategy key tables). Unknown
/// strategy names or option keys, and malformed option values, throw
/// std::invalid_argument naming the offender and the known alternatives.
std::unique_ptr<Strategy> makeStrategy(
    std::string_view name, core::SizingProblem problem, std::uint64_t seed,
    std::size_t budget, const std::map<std::string, std::string>& options = {});

}  // namespace trdse::opt
