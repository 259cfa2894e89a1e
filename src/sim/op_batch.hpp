// The simulator's operating-point engines: DC, transient, and AC passes that
// drive up to kSimLanes (sizing, corner) operating points through one
// Newton/LU pipeline. solveDcBatch, TransientBatch and AcBatch are the
// library's only DC, transient and small-signal implementations; DcSolver,
// TransientSolver and AcSolver are one-lane calls into them.
//
// The contract every engine here honors:
//   * Lanes are independent. A lane's trajectory never depends on what the
//     other lanes hold or on which slot it occupies, so a one-lane pass, a
//     partially filled batch (null lanes), a permuted batch, and lanes that
//     freeze early (converged / failed) all give a lane the same bits.
//   * Lane l equals the reference bit for bit (a NaN's sign aside, which
//     the compiler may place differently per build). The references are the
//     textbook scalar loops over one dense MNA matrix in
//     tests/sim_reference.hpp: the DC ladder, the trapezoidal transient, and
//     the complex AC solve through the scalar LU beside it (tests/lu.hpp).
// Three mechanisms make the second hold:
//   1. Device cards are evaluated through the shared block kernels
//      (evalMosBlock / evalDiodeBlock), whose lanes are bitwise identical to
//      the scalar calls by construction (see sim/mosfet.hpp).
//   2. Stamps, Newton updates, and convergence tests replicate the
//      reference's expressions literally, per lane, in its stamp order; the
//      translation units involved (the reference's test TU included) are
//      compiled with FP contraction off so the same source expression cannot
//      fuse differently.
//   3. The lane-blocked LUs factor each lane with the scalar LU's pivoting
//      rule (per-lane pivot scan and row swaps) while vectorizing the
//      elimination across lanes — arithmetic per lane is unchanged. The
//      complex LU spells every product and the pivot reciprocal as the naive
//      schoolbook formula on split re/im planes, which is the reference's op
//      sequence on finite and non-finite values alike.
//
// tests/sim_batch_test.cpp locks both properties over every device type,
// every rung of the DC ladder, a transient that fails mid-run, an AC lane
// driven non-finite, every subset and slot permutation of a pass, and every
// registry circuit, corner set, and thread count.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/dc.hpp"
#include "sim/mosfet.hpp"
#include "sim/netlist.hpp"
#include "sim/transient.hpp"

namespace trdse::sim {

/// Whether two netlists can share one batch: identical MNA structure (node
/// count and every device's connectivity, in the same order). Element values,
/// device parameters, and temperature may differ — that is what the lanes are
/// for.
bool sameTopology(const Netlist& a, const Netlist& b);

/// Batched DC operating point over up to kSimLanes netlists of one topology.
/// Null lanes are skipped (their result stays default-constructed). A null
/// guess, or one whose size is not nodeCount(), starts the lane from zeros.
/// Each lane runs the full convergence ladder (plain Newton, gmin stepping,
/// source stepping) as an independent state machine; lanes at different
/// ladder stages still share each lockstep iteration's block device
/// evaluation and lane-blocked LU.
std::array<DcResult, kSimLanes> solveDcBatch(
    const std::array<const Netlist*, kSimLanes>& nls,
    const std::array<const linalg::Vector*, kSimLanes>& guesses,
    const DcOptions& opts = {});

/// Batched trapezoidal transient with an incremental stepping API. Lanes run
/// in lockstep (same dt, same step count); within a time step each lane's
/// Newton iteration freezes independently on its own convergence test.
///
/// step(k) followed by step(n - k) is state-identical to step(n) — the
/// companion states, voltages, and recorded traces carry over exactly — which
/// is what lets a consumer interleave lanes with other work. A lane whose
/// Newton fails (or whose matrix goes singular) stops recording at that step
/// with completed == false.
class TransientBatch {
 public:
  /// `nls[l] == nullptr` disables lane l. Active lanes must share topology
  /// and each needs an initial node-voltage vector of size nodeCount().
  TransientBatch(const std::array<const Netlist*, kSimLanes>& nls,
                 const TransientOptions& opts,
                 const std::array<const linalg::Vector*, kSimLanes>& initial);
  ~TransientBatch();
  TransientBatch(const TransientBatch&) = delete;
  TransientBatch& operator=(const TransientBatch&) = delete;

  /// Total accepted steps a full run performs (tStop / dt).
  std::size_t totalSteps() const;
  /// Steps advanced so far (for live lanes; dead lanes stopped earlier).
  std::size_t stepsDone() const;
  /// Advance up to `n` further lockstep time steps.
  void step(std::size_t n);
  /// Run to completion.
  void run();
  /// Lane result so far: the live trace, which stepping appends to in
  /// place; completed == true only after a full run.
  const TransientResult& result(int lane) const;
  /// Move a lane's result out (the lane must not be stepped afterwards).
  TransientResult takeResult(int lane);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Small-signal AC over up to kSimLanes operating points. Each lane's system
/// (G + jωC) x = b is stamped from its netlist at its DC operating point: the
/// MOSFETs become four-terminal conductances from the DC Jacobian plus their
/// gate and drain capacitances (so Miller multiplication and non-dominant
/// poles emerge from the topology), diodes their operating-point
/// conductance, and b holds the sources' AC magnitudes. The G/C images are
/// built once; every frequency point runs a lane-blocked complex LU over
/// split re/im planes and persistent workspaces — no per-frequency
/// allocation.
class AcBatch {
 public:
  /// `ops[l] == nullptr` disables lane l; active lanes need a converged
  /// DcResult for their netlist and must share topology.
  AcBatch(const std::array<const Netlist*, kSimLanes>& nls,
          const std::array<const DcResult*, kSimLanes>& ops);
  ~AcBatch();
  AcBatch(const AcBatch&) = delete;
  AcBatch& operator=(const AcBatch&) = delete;

  /// Solve (G + jωC) x = b on every active lane at one frequency. A non-null
  /// `rhs[l]` (unknownCount() real entries) stands in for lane l's stamped
  /// excitation b in this solve. A lane whose factorization is numerically
  /// singular yields a zero solution vector.
  void solveAt(double freqHz,
               const std::array<const linalg::Vector*, kSimLanes>& rhs = {});

  /// Complex node voltage of the latest solveAt() solution.
  std::complex<double> nodeVoltage(int lane, NodeId n) const;

  /// Lane `lane`'s whole latest solveAt() solution: nodes, then branches.
  linalg::ComplexVector solution(int lane) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The small-signal measurement pass of the AC circuits: the DC operating
/// points of up to kSimLanes testbench netlists (null lanes skipped) through
/// solveDcBatch, then one AcBatch sweep over `freqs` on the lanes whose DC
/// converged. At each frequency, in order, `probe(lane, ac)` runs for every
/// such lane, in lane order, to read its solution. Returns the DC results; a
/// lane with converged == false was never probed.
template <typename Probe>
std::array<DcResult, kSimLanes> solveDcAndSweepAc(
    const std::array<const Netlist*, kSimLanes>& nls,
    const std::array<const linalg::Vector*, kSimLanes>& guesses,
    const std::vector<double>& freqs, Probe&& probe) {
  std::array<DcResult, kSimLanes> ops = solveDcBatch(nls, guesses);
  std::array<const Netlist*, kSimLanes> acNls{};
  std::array<const DcResult*, kSimLanes> acOps{};
  bool anyAc = false;
  for (std::size_t l = 0; l < kSimLanes; ++l) {
    if (!ops[l].converged) continue;
    acNls[l] = nls[l];
    acOps[l] = &ops[l];
    anyAc = true;
  }
  if (anyAc) {
    AcBatch ac(acNls, acOps);
    for (const double f : freqs) {
      ac.solveAt(f);
      for (std::size_t l = 0; l < kSimLanes; ++l)
        if (acOps[l] != nullptr) probe(static_cast<int>(l), std::as_const(ac));
    }
  }
  return ops;
}

}  // namespace trdse::sim
