// Small-signal noise analysis.
//
// Every physical noise generator is modelled as a current source across its
// device and propagated to the output node by superposition through the
// linearized network:
//   resistor:  thermal   4kT/R                 [A^2/Hz]
//   MOSFET:    channel   4kT * gamma * gm  (+ 1/f: Kf/(Cox W L f))
//   diode:     shot      2 q Id
// The output PSD is  sum_k |Z_out,k(f)|^2 * S_k(f), with Z from a unit
// current injection solve per source. Input-referred noise divides by the
// signal gain |H(f)|^2. Each analysis stamps one one-lane AcBatch
// (sim/op_batch.hpp) and runs every injection and gain solve on it.
#pragma once

#include <vector>

#include "sim/dc.hpp"
#include "sim/netlist.hpp"

namespace trdse::sim {

class AcBatch;

struct NoiseOptions {
  double mosGamma = 1.0;     ///< excess channel-noise factor (short channel)
  double flickerKf = 2e-25;  ///< 1/f coefficient [J]
  bool includeFlicker = true;
};

struct NoiseResult {
  std::vector<double> freqs;
  std::vector<double> outputPsd;  ///< [V^2/Hz] at the output node
  /// sqrt of the PSD integral over the swept band [V rms].
  double integratedRms = 0.0;
};

class NoiseAnalyzer {
 public:
  /// `op` must be a converged DcResult for `netlist`; both must outlive the
  /// analyzer.
  NoiseAnalyzer(const Netlist& netlist, const DcResult& op,
                NoiseOptions options = {});

  /// Output noise PSD at `out` over the frequency grid.
  NoiseResult outputNoise(const std::vector<double>& freqs, NodeId out) const;

  /// Input-referred PSD: output PSD divided by |H|^2 where H is the transfer
  /// from the netlist's AC sources to `out`.
  NoiseResult inputReferredNoise(const std::vector<double>& freqs,
                                 NodeId out) const;

 private:
  double mosChannelPsd(const MosOp& op, const MosInstance& fet, double freq) const;
  /// outputNoise's body, on the caller's AcBatch of this netlist.
  NoiseResult outputNoiseOn(AcBatch& ac, const std::vector<double>& freqs,
                            NodeId out) const;

  const Netlist& netlist_;
  const DcResult& op_;
  NoiseOptions options_;
};

}  // namespace trdse::sim
