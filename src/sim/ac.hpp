// Small-signal AC analysis of one netlist.
//
// AcSolver is the one-point entry: each call is a one-lane pass of AcBatch
// (sim/op_batch.hpp), the library's only small-signal implementation, which
// linearizes the netlist's devices at a previously computed DC operating
// point and LU-solves the complex system (G + jωC) x = b per frequency. The
// loop-metric helpers below turn a swept transfer function into gain, UGBW
// and phase margin.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/dc.hpp"
#include "sim/netlist.hpp"

namespace trdse::sim {

class AcSolver {
 public:
  /// `op` must be a converged DcResult for the same netlist (it is copied;
  /// the netlist must outlive the solver).
  AcSolver(const Netlist& netlist, const DcResult& op);

  /// Complex solution vector (nodes then branches) at one frequency.
  linalg::ComplexVector solveAt(double freqHz) const;

  /// Complex voltage at a node for the solution of solveAt().
  std::complex<double> nodeVoltage(const linalg::ComplexVector& x, NodeId n) const;

  /// Log-spaced frequency grid [fStart, fStop] with `points` samples.
  static std::vector<double> logSpace(double fStart, double fStop,
                                      std::size_t points);

  /// Sweep: complex voltage of `out` at each frequency.
  std::vector<std::complex<double>> sweep(const std::vector<double>& freqs,
                                          NodeId out) const;

 private:
  const Netlist& netlist_;
  DcResult op_;
};

/// 20*log10(|h|), with a -400 dB floor for numerically-zero responses.
double magnitudeDb(const std::complex<double>& h);
/// Phase in degrees, unwrapped relative monotonically from the first point.
std::vector<double> unwrappedPhaseDeg(const std::vector<std::complex<double>>& h);

struct LoopMetrics {
  double dcGainDb = -400.0;
  double unityGainHz = 0.0;   ///< 0 when |H| never crosses 1
  double phaseMarginDeg = 0.0;
  bool crossesUnity = false;
};

/// Open-loop amplifier metrics from a swept transfer function: DC gain,
/// unity-gain crossover (log-interpolated) and phase margin at the crossover.
LoopMetrics analyzeLoop(const std::vector<double>& freqs,
                        const std::vector<std::complex<double>>& h);

}  // namespace trdse::sim
