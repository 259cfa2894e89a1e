#include "sim/dc.hpp"

#include <array>
#include <utility>

#include "sim/op_batch.hpp"

namespace trdse::sim {

DcSolver::DcSolver(const Netlist& netlist, DcOptions options)
    : netlist_(netlist), options_(options) {}

DcResult DcSolver::solve(const linalg::Vector* initialGuess) const {
  std::array<const Netlist*, kSimLanes> nls{};
  std::array<const linalg::Vector*, kSimLanes> guesses{};
  nls[0] = &netlist_;
  guesses[0] = initialGuess;
  auto lanes = solveDcBatch(nls, guesses, options_);
  return std::move(lanes[0]);
}

}  // namespace trdse::sim
