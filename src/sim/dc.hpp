// Nonlinear DC operating point: Newton-Raphson over the MNA system with
// per-node step damping, falling back to gmin stepping and then source
// stepping when the plain iteration fails — the standard SPICE ladder.
//
// DcSolver is the one-point entry: a one-lane call of solveDcBatch
// (sim/op_batch.hpp), the library's only DC implementation. It hides the
// lane-array layout from callers that solve one netlist at a time.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "sim/netlist.hpp"

namespace trdse::sim {

struct DcOptions {
  int maxIterations = 200;
  double tolAbs = 1e-9;     ///< absolute node-voltage convergence [V]
  double tolRel = 1e-9;     ///< relative part of the convergence test
  double gmin = 1e-12;      ///< conductance from every node to ground [S]
  double damping = 0.5;     ///< max node-voltage step per Newton iteration [V]
};

struct DcResult {
  bool converged = false;
  int iterations = 0;
  linalg::Vector v;               ///< node voltages incl. ground at index 0
  linalg::Vector branchCurrents;  ///< vsources, vcvs, inductors (netlist order)
  std::vector<MosOp> mosOps;      ///< per-MOSFET operating point (netlist order)
  linalg::Vector diodeConductances;  ///< per-diode gd at the OP

  double nodeVoltage(NodeId n) const { return v[static_cast<std::size_t>(n)]; }
  /// Current through the idx-th voltage source (positive p -> n).
  double vsourceCurrent(std::size_t idx) const { return branchCurrents[idx]; }
};

class DcSolver {
 public:
  explicit DcSolver(const Netlist& netlist, DcOptions options = {});

  /// Solve from an optional initial node-voltage guess (size nodeCount; any
  /// other size, or none, starts from all zeros).
  DcResult solve(const linalg::Vector* initialGuess = nullptr) const;

 private:
  const Netlist& netlist_;
  DcOptions options_;
};

}  // namespace trdse::sim
