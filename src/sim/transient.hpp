// Fixed-step trapezoidal transient analysis with a Newton solve per step.
//
// Capacitors use the trapezoidal companion model (geq = 2C/h); MOSFETs are
// re-linearized each Newton iteration, with their parasitic capacitances
// included as fixed linear capacitors. This is what the ICO experiment uses
// to measure oscillation frequency from node-crossing periods.
//
// TransientSolver is the one-point entry: a one-lane TransientBatch
// (sim/op_batch.hpp), the library's only transient implementation. The
// waveform helpers below measure either one's results.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "sim/dc.hpp"
#include "sim/netlist.hpp"

namespace trdse::sim {

struct TransientOptions {
  double tStop = 1e-9;
  double dt = 1e-12;
  int maxNewtonIterations = 50;
  double tolAbs = 1e-6;
  bool includeDeviceCaps = true;
};

struct Waveform {
  std::vector<double> t;
  std::vector<double> v;
  bool valid = false;
};

/// One lane's recorded trace: one row per accepted time point, the t = 0
/// initial state first. The rows are stored flat and row-major, the layout
/// the engine appends them in.
struct TransientResult {
  bool completed = false;
  std::size_t nodeCount = 0;    ///< columns of `voltages` (ground included)
  std::size_t branchCount = 0;  ///< columns of `branchCurrents`
  std::vector<double> times;
  /// times.size() x nodeCount node voltages.
  std::vector<double> voltages;
  /// times.size() x branchCount currents of every MNA branch: vsources, vcvs
  /// and inductors, in the netlist's branch order (so column k of the first
  /// block is vsource k). The t = 0 row is zeros.
  std::vector<double> branchCurrents;

  double voltage(std::size_t t, NodeId n) const {
    return voltages[t * nodeCount + static_cast<std::size_t>(n)];
  }
  double branchCurrent(std::size_t t, std::size_t k) const {
    return branchCurrents[t * branchCount + k];
  }

  Waveform waveform(NodeId n) const;

  /// Mean |current| through the idx-th voltage source over the trailing
  /// fraction of the run — the ICO supply-power measurement. The fraction is
  /// clamped to [0, 1]; an empty window (or a run shorter than two points)
  /// gives 0.
  double meanVsourceCurrent(std::size_t vsrcIdx, double tailFraction = 0.5) const;
};

class TransientSolver {
 public:
  TransientSolver(const Netlist& netlist, TransientOptions options = {});

  /// Integrate from the given initial node voltages (e.g. a DC OP, possibly
  /// perturbed to kick an oscillator out of its metastable point). A singular
  /// matrix or an exhausted Newton loop stops the run at that step with
  /// completed == false.
  TransientResult run(const linalg::Vector& initialVoltages) const;

 private:
  const Netlist& netlist_;
  TransientOptions options_;
};

/// Rising-edge crossing times of a waveform through `threshold`
/// (linearly interpolated).
std::vector<double> risingCrossings(const Waveform& w, double threshold);

/// Estimate oscillation frequency from the median period between rising
/// crossings; returns 0 when fewer than `minPeriods` full periods exist.
double estimateFrequency(const Waveform& w, double threshold,
                         std::size_t minPeriods = 3);

/// Peak-to-peak amplitude over the trailing fraction of the waveform. The
/// fraction is clamped to [0, 1]; an empty window gives 0.
double steadyStateAmplitude(const Waveform& w, double tailFraction = 0.5);

}  // namespace trdse::sim
