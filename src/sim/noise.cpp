#include "sim/noise.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/op_batch.hpp"

namespace trdse::sim {

namespace {
constexpr double kBoltzmann = 1.380649e-23;
constexpr double kElectronCharge = 1.602176634e-19;

/// sqrt of the trapezoidal PSD integral over the (typically log-spaced) grid.
double integratedRms(const std::vector<double>& freqs,
                     const std::vector<double>& psd) {
  double integral = 0.0;
  for (std::size_t i = 0; i + 1 < freqs.size(); ++i)
    integral += 0.5 * (psd[i] + psd[i + 1]) * (freqs[i + 1] - freqs[i]);
  return std::sqrt(integral);
}
}  // namespace

NoiseAnalyzer::NoiseAnalyzer(const Netlist& netlist, const DcResult& op,
                             NoiseOptions options)
    : netlist_(netlist), op_(op), options_(options) {}

double NoiseAnalyzer::mosChannelPsd(const MosOp& op, const MosInstance& fet,
                                    double freq) const {
  const double thermal =
      4.0 * kBoltzmann * netlist_.tempK * options_.mosGamma * op.gm;
  double flicker = 0.0;
  if (options_.includeFlicker && freq > 0.0) {
    const double coxArea =
        fet.params.cox * fet.geom.w * fet.geom.m * fet.geom.l;
    if (coxArea > 0.0)
      flicker = options_.flickerKf * op.gm * op.gm / (coxArea * freq);
  }
  return thermal + flicker;
}

NoiseResult NoiseAnalyzer::outputNoise(const std::vector<double>& freqs,
                                       NodeId out) const {
  AcBatch ac({&netlist_}, {&op_});
  return outputNoiseOn(ac, freqs, out);
}

NoiseResult NoiseAnalyzer::outputNoiseOn(AcBatch& ac,
                                         const std::vector<double>& freqs,
                                         NodeId out) const {
  NoiseResult r;
  r.freqs = freqs;
  r.outputPsd.assign(freqs.size(), 0.0);
  // |Z| at f from a unit current injected from `from` into `to` to the
  // output: the independent sources are dead (b = injection only;
  // voltage-source branch rows keep their zero RHS, i.e. AC shorts).
  const auto transimpedance = [&](double f, NodeId from, NodeId to) {
    linalg::Vector b(netlist_.unknownCount(), 0.0);
    if (from != kGround) b[netlist_.nodeIndex(from)] -= 1.0;
    if (to != kGround) b[netlist_.nodeIndex(to)] += 1.0;
    ac.solveAt(f, {&b});
    return std::abs(ac.nodeVoltage(0, out));
  };

  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    const double f = freqs[fi];
    double psd = 0.0;

    for (const auto& res : netlist_.resistors()) {
      const double z = transimpedance(f, res.a, res.b);
      psd += z * z * 4.0 * kBoltzmann * netlist_.tempK / res.ohms;
    }
    for (std::size_t k = 0; k < netlist_.mosfets().size(); ++k) {
      const auto& fet = netlist_.mosfets()[k];
      const double z = transimpedance(f, fet.d, fet.s);
      psd += z * z * mosChannelPsd(op_.mosOps[k], fet, f);
    }
    for (const auto& d : netlist_.diodes()) {
      // Shot noise of the DC junction current.
      const double vak = op_.v[static_cast<std::size_t>(d.a)] -
                         op_.v[static_cast<std::size_t>(d.k)];
      const double vt = thermalVoltage(netlist_.tempK) * d.emission;
      const double id = d.isat * (std::exp(std::min(vak / vt, 40.0)) - 1.0);
      const double z = transimpedance(f, d.a, d.k);
      psd += z * z * 2.0 * kElectronCharge * std::abs(id);
    }
    r.outputPsd[fi] = psd;
  }
  r.integratedRms = integratedRms(freqs, r.outputPsd);
  return r;
}

NoiseResult NoiseAnalyzer::inputReferredNoise(const std::vector<double>& freqs,
                                              NodeId out) const {
  AcBatch ac({&netlist_}, {&op_});
  NoiseResult r = outputNoiseOn(ac, freqs, out);
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    ac.solveAt(freqs[fi]);
    const double h = std::abs(ac.nodeVoltage(0, out));
    r.outputPsd[fi] = h > 1e-30 ? r.outputPsd[fi] / (h * h) : 0.0;
  }
  r.integratedRms = integratedRms(freqs, r.outputPsd);
  return r;
}

}  // namespace trdse::sim
