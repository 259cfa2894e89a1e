#include "sim/transient.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/op_batch.hpp"

namespace trdse::sim {

TransientSolver::TransientSolver(const Netlist& netlist, TransientOptions options)
    : netlist_(netlist), options_(options) {}

TransientResult TransientSolver::run(const linalg::Vector& initialVoltages) const {
  std::array<const Netlist*, kSimLanes> nls{};
  std::array<const linalg::Vector*, kSimLanes> initial{};
  nls[0] = &netlist_;
  initial[0] = &initialVoltages;
  TransientBatch batch(nls, options_, initial);
  batch.run();
  return batch.takeResult(0);
}

Waveform TransientResult::waveform(NodeId n) const {
  Waveform w;
  w.t = times;
  w.v.reserve(voltages.size());
  for (const auto& snap : voltages) w.v.push_back(snap[static_cast<std::size_t>(n)]);
  w.valid = completed && !w.v.empty();
  return w;
}

double TransientResult::meanVsourceCurrent(std::size_t vsrcIdx,
                                           double tailFraction) const {
  if (branchCurrents.size() < 2) return 0.0;
  const std::size_t start = static_cast<std::size_t>(
      static_cast<double>(branchCurrents.size()) * (1.0 - tailFraction));
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = std::max<std::size_t>(start, 1); i < branchCurrents.size();
       ++i) {
    sum += std::abs(branchCurrents[i][vsrcIdx]);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::vector<double> risingCrossings(const Waveform& w, double threshold) {
  std::vector<double> times;
  for (std::size_t i = 0; i + 1 < w.v.size(); ++i) {
    if (w.v[i] < threshold && w.v[i + 1] >= threshold) {
      const double frac = (threshold - w.v[i]) / (w.v[i + 1] - w.v[i]);
      times.push_back(w.t[i] + frac * (w.t[i + 1] - w.t[i]));
    }
  }
  return times;
}

double estimateFrequency(const Waveform& w, double threshold,
                         std::size_t minPeriods) {
  const std::vector<double> cross = risingCrossings(w, threshold);
  if (cross.size() < minPeriods + 1) return 0.0;
  // Median period over the second half (post-startup) of the crossings.
  std::vector<double> periods;
  const std::size_t start = cross.size() / 2;
  for (std::size_t i = std::max<std::size_t>(start, 1); i < cross.size(); ++i)
    periods.push_back(cross[i] - cross[i - 1]);
  if (periods.empty()) return 0.0;
  std::nth_element(periods.begin(), periods.begin() + periods.size() / 2,
                   periods.end());
  const double medPeriod = periods[periods.size() / 2];
  return medPeriod > 0.0 ? 1.0 / medPeriod : 0.0;
}

double steadyStateAmplitude(const Waveform& w, double tailFraction) {
  if (w.v.empty()) return 0.0;
  const std::size_t start =
      static_cast<std::size_t>(static_cast<double>(w.v.size()) * (1.0 - tailFraction));
  double lo = w.v[start];
  double hi = w.v[start];
  for (std::size_t i = start; i < w.v.size(); ++i) {
    lo = std::min(lo, w.v[i]);
    hi = std::max(hi, w.v[i]);
  }
  return hi - lo;
}

}  // namespace trdse::sim
