#include "sim/transient.hpp"

#include <algorithm>
#include <array>
#include <cassert>
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

namespace {

/// First index of the trailing `fraction` of `size` samples, the fraction
/// clamped to [0, 1] (a NaN counts as 0: an empty window).
std::size_t tailStart(std::size_t size, double fraction) {
  const double f = fraction > 0.0 ? std::min(fraction, 1.0) : 0.0;
  return static_cast<std::size_t>(static_cast<double>(size) * (1.0 - f));
}

}  // namespace

Waveform TransientResult::waveform(NodeId n) const {
  Waveform w;
  w.t = times;
  w.v.reserve(times.size());
  for (std::size_t t = 0; t < times.size(); ++t) w.v.push_back(voltage(t, n));
  w.valid = completed && !w.v.empty();
  return w;
}

double TransientResult::meanVsourceCurrent(std::size_t vsrcIdx,
                                           double tailFraction) const {
  const std::size_t rows = times.size();
  if (rows < 2) return 0.0;
  assert(vsrcIdx < branchCount);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = std::max<std::size_t>(tailStart(rows, tailFraction), 1);
       i < rows; ++i) {
    sum += std::abs(branchCurrent(i, vsrcIdx));
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
  const std::size_t start = tailStart(w.v.size(), tailFraction);
  if (start >= w.v.size()) return 0.0;
  double lo = w.v[start];
  double hi = w.v[start];
  for (std::size_t i = start; i < w.v.size(); ++i) {
    lo = std::min(lo, w.v[i]);
    hi = std::max(hi, w.v[i]);
  }
  return hi - lo;
}

}  // namespace trdse::sim
