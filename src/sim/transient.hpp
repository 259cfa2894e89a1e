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

struct TransientResult {
  bool completed = false;
  std::vector<double> times;
  /// times.size() x nodeCount matrix of node voltages (ground column incl.).
  std::vector<linalg::Vector> voltages;
  /// times.size() x (vsources + vcvs) branch currents (empty at t=0 entry).
  std::vector<linalg::Vector> branchCurrents;

  Waveform waveform(NodeId n) const;

  /// Mean |current| through the idx-th voltage source over the trailing
  /// fraction of the run — the ICO supply-power measurement.
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

/// Peak-to-peak amplitude over the trailing fraction of the waveform.
double steadyStateAmplitude(const Waveform& w, double tailFraction = 0.5);

}  // namespace trdse::sim
