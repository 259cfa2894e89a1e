#include "sim/ac.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

#include "sim/op_batch.hpp"

namespace trdse::sim {

AcSolver::AcSolver(const Netlist& netlist, const DcResult& op)
    : netlist_(netlist), op_(op) {
  assert(op.converged && "AC analysis requires a converged operating point");
}

linalg::ComplexVector AcSolver::solveAt(double freqHz) const {
  AcBatch ac({&netlist_}, {&op_});
  ac.solveAt(freqHz);
  return ac.solution(0);
}

std::complex<double> AcSolver::nodeVoltage(const linalg::ComplexVector& x,
                                           NodeId n) const {
  if (n == kGround) return {0.0, 0.0};
  return x[netlist_.nodeIndex(n)];
}

std::vector<double> AcSolver::logSpace(double fStart, double fStop,
                                       std::size_t points) {
  assert(fStart > 0.0 && fStop > fStart && points >= 2);
  std::vector<double> f(points);
  const double l0 = std::log10(fStart);
  const double l1 = std::log10(fStop);
  for (std::size_t i = 0; i < points; ++i)
    f[i] = std::pow(10.0, l0 + (l1 - l0) * static_cast<double>(i) /
                              static_cast<double>(points - 1));
  return f;
}

std::vector<std::complex<double>> AcSolver::sweep(const std::vector<double>& freqs,
                                                  NodeId out) const {
  AcBatch ac({&netlist_}, {&op_});
  std::vector<std::complex<double>> h;
  h.reserve(freqs.size());
  for (const double f : freqs) {
    ac.solveAt(f);
    h.push_back(ac.nodeVoltage(0, out));
  }
  return h;
}

double magnitudeDb(const std::complex<double>& h) {
  const double m = std::abs(h);
  if (m < 1e-20) return -400.0;
  return 20.0 * std::log10(m);
}

std::vector<double> unwrappedPhaseDeg(const std::vector<std::complex<double>>& h) {
  std::vector<double> ph(h.size());
  constexpr double kRadToDeg = 180.0 / std::numbers::pi;
  double prev = 0.0;
  double offset = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    double p = std::arg(h[i]) * kRadToDeg;
    if (i > 0) {
      while (p + offset - prev > 180.0) offset -= 360.0;
      while (p + offset - prev < -180.0) offset += 360.0;
    }
    ph[i] = p + offset;
    prev = ph[i];
  }
  return ph;
}

LoopMetrics analyzeLoop(const std::vector<double>& freqs,
                        const std::vector<std::complex<double>>& h) {
  assert(freqs.size() == h.size() && !freqs.empty());
  LoopMetrics m;
  m.dcGainDb = magnitudeDb(h.front());
  const std::vector<double> phase = unwrappedPhaseDeg(h);

  for (std::size_t i = 0; i + 1 < h.size(); ++i) {
    const double m0 = magnitudeDb(h[i]);
    const double m1 = magnitudeDb(h[i + 1]);
    if (m0 >= 0.0 && m1 < 0.0) {
      // Log-frequency interpolation of the 0 dB crossing.
      const double t = m0 / (m0 - m1);
      const double lf = std::log10(freqs[i]) +
                        t * (std::log10(freqs[i + 1]) - std::log10(freqs[i]));
      m.unityGainHz = std::pow(10.0, lf);
      const double phAtCross = phase[i] + t * (phase[i + 1] - phase[i]);
      // Phase margin relative to the DC phase reference (inverting amps
      // start at ±180°): PM = 180 - |phase shift from DC|.
      const double shift = std::abs(phAtCross - phase.front());
      m.phaseMarginDeg = 180.0 - shift;
      m.crossesUnity = true;
      return m;
    }
  }
  return m;
}

}  // namespace trdse::sim
