#pragma once
// Per-phase wall-time counters for the batched operating-point engines.
//
// The hot loops in op_batch.cpp attribute their time to four phases —
// device-card evaluation, matrix/RHS stamping, LU factorization, and
// triangular solve — so perf PRs can see where a win or regression landed
// without a profiler. Profiling is off by default and the counters then stay
// at exactly zero: the only cost on the hot path is one relaxed atomic load
// per phase scope, and downstream consumers (EvalStats equality checks,
// checkpoint round-trips) see stable all-zero values.
//
// The totals are process-global (relaxed atomic adds), aggregated across all
// threads that simulate; they are diagnostics, not resumable state, and are
// deliberately excluded from the checkpoint wire format.

#include <cstdint>

namespace trdse::sim {

enum class SimPhase { kDeviceEval = 0, kStamp = 1, kFactor = 2, kSolve = 3 };

struct SimPhaseTotals {
  std::uint64_t deviceEvalNs = 0;
  std::uint64_t stampNs = 0;
  std::uint64_t factorNs = 0;
  std::uint64_t solveNs = 0;
};

bool simProfilingEnabled();
void setSimProfiling(bool on);
SimPhaseTotals simPhaseTotals();
void resetSimPhaseTotals();
void addSimPhaseNs(SimPhase phase, std::uint64_t ns);

/// Monotonic clock read, only meaningful for differences.
std::int64_t simProfileNowNs();

/// RAII phase scope. When profiling is disabled the constructor is a single
/// relaxed load and the destructor a branch.
class SimPhaseTimer {
 public:
  explicit SimPhaseTimer(SimPhase phase) : phase_(phase) {
    if (simProfilingEnabled()) startNs_ = simProfileNowNs();
  }
  SimPhaseTimer(const SimPhaseTimer&) = delete;
  SimPhaseTimer& operator=(const SimPhaseTimer&) = delete;
  ~SimPhaseTimer() {
    if (startNs_ >= 0)
      addSimPhaseNs(phase_,
                    static_cast<std::uint64_t>(simProfileNowNs() - startNs_));
  }

 private:
  SimPhase phase_;
  std::int64_t startNs_ = -1;
};

}  // namespace trdse::sim
