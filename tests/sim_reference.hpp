// Scalar reference solvers: the textbook DC, transient and small-signal AC
// solves over one dense MNA matrix, kept as the oracle the lane engines in
// sim/op_batch.hpp are compared against bit for bit
// (tests/sim_batch_test.cpp).
//
// The library's DcSolver, TransientSolver and AcSolver are one-lane calls
// into those engines; these loops are what a lane must reproduce. They stamp
// every device in netlist order (the DC and transient loops on every Newton
// iteration) and factor through the scalar linalg::LuSolver (lu.hpp). The
// including test TU is compiled with FP contraction and the vectorizers off
// (see CMakeLists.txt), like the engine TUs contraction-wise, so the same
// source expression cannot round differently here and there.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <complex>
#include <numbers>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "lu.hpp"
#include "sim/dc.hpp"
#include "sim/diode.hpp"
#include "sim/mosfet.hpp"
#include "sim/netlist.hpp"
#include "sim/transient.hpp"

namespace trdse::sim::reference {

namespace detail {

/// Stamp helper: add g between nodes a and b of the reduced MNA matrix.
inline void stampG(linalg::Matrix& A, const Netlist& nl, NodeId a, NodeId b,
                   double g) {
  if (a != kGround) {
    const std::size_t ia = nl.nodeIndex(a);
    A(ia, ia) += g;
    if (b != kGround) A(ia, nl.nodeIndex(b)) -= g;
  }
  if (b != kGround) {
    const std::size_t ib = nl.nodeIndex(b);
    A(ib, ib) += g;
    if (a != kGround) A(ib, nl.nodeIndex(a)) -= g;
  }
}

/// Stamp a current i flowing out of node a and into node b (KCL RHS).
inline void stampI(linalg::Vector& rhs, const Netlist& nl, NodeId a, NodeId b,
                   double i) {
  if (a != kGround) rhs[nl.nodeIndex(a)] -= i;
  if (b != kGround) rhs[nl.nodeIndex(b)] += i;
}

/// Add coefficient c at (row of node r, column of node cNode), skipping ground.
inline void addAt(linalg::Matrix& A, const Netlist& nl, NodeId r, NodeId cNode,
                  double c) {
  if (r == kGround || cNode == kGround) return;
  A(nl.nodeIndex(r), nl.nodeIndex(cNode)) += c;
}

}  // namespace detail

/// One damped Newton loop at a fixed (gmin, source scale) setting.
inline DcResult newtonLoop(const Netlist& nl, const DcOptions& options,
                           linalg::Vector v, double gmin, double srcScale,
                           int maxIter) {
  using detail::addAt;
  using detail::stampG;
  using detail::stampI;
  const std::size_t n = nl.unknownCount();
  DcResult result;
  result.v = std::move(v);
  if (result.v.size() != nl.nodeCount()) result.v.assign(nl.nodeCount(), 0.0);

  linalg::Matrix A(n, n);
  linalg::Vector rhs(n, 0.0);
  linalg::LuSolver<double> lu;
  std::vector<MosOp> ops(nl.mosfets().size());

  for (int iter = 0; iter < maxIter; ++iter) {
    A.fill(0.0);
    std::fill(rhs.begin(), rhs.end(), 0.0);

    for (const auto& r : nl.resistors()) stampG(A, nl, r.a, r.b, 1.0 / r.ohms);
    // Capacitors are open in DC; gmin keeps floating nodes anchored.
    for (std::size_t i = 1; i < nl.nodeCount(); ++i)
      A(nl.nodeIndex(static_cast<NodeId>(i)), nl.nodeIndex(static_cast<NodeId>(i))) += gmin;

    for (const auto& src : nl.isources())
      stampI(rhs, nl, src.p, src.n, src.idc * srcScale);

    // VCCS: i(p->n) = gm * (v_cp - v_cn), purely linear.
    for (const auto& g : nl.vccs()) {
      addAt(A, nl, g.p, g.cp, g.gm);
      addAt(A, nl, g.p, g.cn, -g.gm);
      addAt(A, nl, g.n, g.cp, -g.gm);
      addAt(A, nl, g.n, g.cn, g.gm);
    }

    // Diodes: Newton linearization around the current guess.
    for (const auto& d : nl.diodes()) {
      const double vak = result.v[static_cast<std::size_t>(d.a)] -
                         result.v[static_cast<std::size_t>(d.k)];
      const DiodeOp op = evalDiode(d, vak, nl.tempK);
      stampG(A, nl, d.a, d.k, op.gd);
      stampI(rhs, nl, d.a, d.k, op.id - op.gd * vak);
    }

    // Inductors are DC shorts: a zero-volt branch.
    for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
      const auto& ind = nl.inductors()[k];
      const std::size_t br = nl.inductorBranchIndex(k);
      if (ind.a != kGround) {
        A(nl.nodeIndex(ind.a), br) += 1.0;
        A(br, nl.nodeIndex(ind.a)) += 1.0;
      }
      if (ind.b != kGround) {
        A(nl.nodeIndex(ind.b), br) -= 1.0;
        A(br, nl.nodeIndex(ind.b)) -= 1.0;
      }
    }

    // MOSFETs: Newton linearization. ids leaves the drain node and enters the
    // source node; the linearized current is
    //   ids(v) ~= ids0 + sum_t g_t (v_t - v_t0).
    for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
      const auto& fet = nl.mosfets()[k];
      const double vd = result.v[static_cast<std::size_t>(fet.d)];
      const double vg = result.v[static_cast<std::size_t>(fet.g)];
      const double vs = result.v[static_cast<std::size_t>(fet.s)];
      const double vb = result.v[static_cast<std::size_t>(fet.b)];
      const MosOp op = evalMos(fet.params, fet.type, fet.geom, vd, vg, vs, vb,
                               nl.tempK);
      ops[k] = op;
      // Jacobian entries for the drain KCL row (+ids) and source row (-ids).
      addAt(A, nl, fet.d, fet.d, op.dIdVd);
      addAt(A, nl, fet.d, fet.g, op.dIdVg);
      addAt(A, nl, fet.d, fet.s, op.dIdVs);
      addAt(A, nl, fet.d, fet.b, op.dIdVb);
      addAt(A, nl, fet.s, fet.d, -op.dIdVd);
      addAt(A, nl, fet.s, fet.g, -op.dIdVg);
      addAt(A, nl, fet.s, fet.s, -op.dIdVs);
      addAt(A, nl, fet.s, fet.b, -op.dIdVb);
      const double ieq = op.ids - op.dIdVd * vd - op.dIdVg * vg -
                         op.dIdVs * vs - op.dIdVb * vb;
      stampI(rhs, nl, fet.d, fet.s, ieq);
    }

    for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
      const auto& src = nl.vsources()[k];
      const std::size_t br = nl.vsourceBranchIndex(k);
      if (src.p != kGround) {
        A(nl.nodeIndex(src.p), br) += 1.0;
        A(br, nl.nodeIndex(src.p)) += 1.0;
      }
      if (src.n != kGround) {
        A(nl.nodeIndex(src.n), br) -= 1.0;
        A(br, nl.nodeIndex(src.n)) -= 1.0;
      }
      rhs[br] = src.vdc * srcScale;
    }

    for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
      const auto& e = nl.vcvs()[k];
      const std::size_t br = nl.vcvsBranchIndex(k);
      if (e.p != kGround) {
        A(nl.nodeIndex(e.p), br) += 1.0;
        A(br, nl.nodeIndex(e.p)) += 1.0;
      }
      if (e.n != kGround) {
        A(nl.nodeIndex(e.n), br) -= 1.0;
        A(br, nl.nodeIndex(e.n)) -= 1.0;
      }
      if (e.cp != kGround) A(br, nl.nodeIndex(e.cp)) -= e.gain;
      if (e.cn != kGround) A(br, nl.nodeIndex(e.cn)) += e.gain;
    }

    if (!lu.factor(A)) {
      result.converged = false;
      result.iterations = iter;
      return result;
    }
    const linalg::Vector x = lu.solve(rhs);

    // Damped update + convergence test on the raw step.
    double maxStep = 0.0;
    for (std::size_t i = 1; i < nl.nodeCount(); ++i) {
      const double vNew = x[nl.nodeIndex(static_cast<NodeId>(i))];
      const double dv = vNew - result.v[i];
      maxStep = std::max(maxStep, std::abs(dv));
      result.v[i] += std::clamp(dv, -options.damping, options.damping);
    }
    result.iterations = iter + 1;

    const double vScale = linalg::normInf(result.v);
    if (maxStep < options.tolAbs + options.tolRel * vScale) {
      result.converged = true;
      result.branchCurrents.assign(nl.branchCount(), 0.0);
      for (std::size_t k = 0; k < nl.branchCount(); ++k)
        result.branchCurrents[k] = x[nl.nodeCount() - 1 + k];
      result.diodeConductances.resize(nl.diodes().size());
      for (std::size_t k = 0; k < nl.diodes().size(); ++k) {
        const auto& d = nl.diodes()[k];
        const double vak = result.v[static_cast<std::size_t>(d.a)] -
                           result.v[static_cast<std::size_t>(d.k)];
        result.diodeConductances[k] = evalDiode(d, vak, nl.tempK).gd;
      }
      // Re-evaluate device operating points at the converged voltages.
      for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
        const auto& fet = nl.mosfets()[k];
        ops[k] = evalMos(fet.params, fet.type, fet.geom,
                         result.v[static_cast<std::size_t>(fet.d)],
                         result.v[static_cast<std::size_t>(fet.g)],
                         result.v[static_cast<std::size_t>(fet.s)],
                         result.v[static_cast<std::size_t>(fet.b)], nl.tempK);
      }
      result.mosOps = std::move(ops);
      return result;
    }
  }
  result.converged = false;
  return result;
}

/// The rung of the convergence ladder a reference DC solve returned from.
enum class DcRung { kNewton, kGminStepping, kSourceStepping };

/// The DC operating point through the full SPICE ladder: plain Newton, then
/// gmin stepping, then source stepping. `rung`, when given, receives the rung
/// whose final loop produced the result (kSourceStepping for a solve that
/// fails every rung).
inline DcResult solveDc(const Netlist& nl,
                        const linalg::Vector* initialGuess = nullptr,
                        const DcOptions& options = {},
                        DcRung* rung = nullptr) {
  DcRung unused;
  DcRung& at = rung != nullptr ? *rung : unused;
  linalg::Vector v0;
  if (initialGuess != nullptr && initialGuess->size() == nl.nodeCount()) {
    v0 = *initialGuess;
  } else {
    v0.assign(nl.nodeCount(), 0.0);
  }

  // 1) plain Newton
  at = DcRung::kNewton;
  DcResult r = newtonLoop(nl, options, v0, options.gmin, 1.0,
                          options.maxIterations);
  if (r.converged) return r;

  // 2) gmin stepping: start heavily damped towards ground, relax tenfold.
  at = DcRung::kGminStepping;
  linalg::Vector warm = v0;
  for (double gmin : {1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11}) {
    DcResult step = newtonLoop(nl, options, warm, gmin, 1.0,
                               options.maxIterations);
    if (step.converged) warm = step.v;
  }
  r = newtonLoop(nl, options, warm, options.gmin, 1.0, options.maxIterations);
  if (r.converged) return r;

  // 3) source stepping: ramp all independent sources from 10% to 100%.
  at = DcRung::kSourceStepping;
  warm = v0;
  for (double scale : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    DcResult step = newtonLoop(nl, options, warm, 1e-9, scale,
                               options.maxIterations);
    if (step.converged) warm = step.v;
  }
  return newtonLoop(nl, options, warm, options.gmin, 1.0,
                    options.maxIterations);
}

namespace detail {

struct CapState {
  NodeId a = kGround;
  NodeId b = kGround;
  double c = 0.0;
  double vPrev = 0.0;  ///< v(a) - v(b) at the previous accepted step
  double iPrev = 0.0;  ///< companion current at the previous step
};

}  // namespace detail

/// Fixed-step trapezoidal transient with a full Newton solve per step. A
/// singular matrix or a Newton loop that exhausts its iterations stops the
/// run at that step with completed == false.
inline TransientResult runTransient(const Netlist& nl,
                                    const TransientOptions& options,
                                    const linalg::Vector& initialVoltages) {
  using detail::addAt;
  using detail::CapState;
  using detail::stampG;
  using detail::stampI;
  const std::size_t n = nl.unknownCount();
  TransientResult result;
  assert(initialVoltages.size() == nl.nodeCount());

  // Collect all capacitors (explicit + device parasitics) as companion states.
  std::vector<CapState> caps;
  for (const auto& c : nl.capacitors()) caps.push_back({c.a, c.b, c.farads, 0, 0});
  if (options.includeDeviceCaps) {
    for (const auto& fet : nl.mosfets()) {
      const double cgg = gateCapacitance(fet.params, fet.geom);
      caps.push_back({fet.g, fet.s, 0.7 * cgg, 0, 0});
      caps.push_back({fet.g, fet.d, 0.3 * cgg, 0, 0});
      caps.push_back({fet.d, fet.b, drainCapacitance(fet.params, fet.geom), 0, 0});
    }
  }

  linalg::Vector v = initialVoltages;  // node voltages incl. ground
  for (auto& cs : caps) {
    cs.vPrev = v[static_cast<std::size_t>(cs.a)] - v[static_cast<std::size_t>(cs.b)];
    cs.iPrev = 0.0;
  }

  // Inductor companion state: branch current + branch voltage history.
  struct IndState {
    double iPrev = 0.0;
    double vPrev = 0.0;
  };
  std::vector<IndState> inds(nl.inductors().size());
  for (std::size_t k = 0; k < inds.size(); ++k) {
    const auto& ind = nl.inductors()[k];
    inds[k].vPrev = v[static_cast<std::size_t>(ind.a)] -
                    v[static_cast<std::size_t>(ind.b)];
  }

  const double h = options.dt;
  const std::size_t steps = static_cast<std::size_t>(options.tStop / h);
  const std::size_t nBranches = nl.branchCount();
  result.nodeCount = nl.nodeCount();
  result.branchCount = nBranches;
  result.times.push_back(0.0);
  result.voltages.insert(result.voltages.end(), v.begin(), v.end());
  result.branchCurrents.insert(result.branchCurrents.end(), nBranches, 0.0);

  linalg::Matrix A(n, n);
  linalg::Vector rhs(n, 0.0);
  linalg::LuSolver<double> lu;

  for (std::size_t step = 1; step <= steps; ++step) {
    // Newton iterations for this time point; warm-start from the last point.
    linalg::Vector vIter = v;
    bool converged = false;
    linalg::Vector x;
    for (int it = 0; it < options.maxNewtonIterations; ++it) {
      A.fill(0.0);
      std::fill(rhs.begin(), rhs.end(), 0.0);

      for (const auto& r : nl.resistors()) stampG(A, nl, r.a, r.b, 1.0 / r.ohms);
      for (std::size_t i = 1; i < nl.nodeCount(); ++i)
        A(i - 1, i - 1) += 1e-12;  // gmin

      for (const auto& src : nl.isources()) stampI(rhs, nl, src.p, src.n, src.idc);

      for (const auto& g : nl.vccs()) {
        addAt(A, nl, g.p, g.cp, g.gm);
        addAt(A, nl, g.p, g.cn, -g.gm);
        addAt(A, nl, g.n, g.cp, -g.gm);
        addAt(A, nl, g.n, g.cn, g.gm);
      }

      // Inductor trapezoidal companion:
      //   i_new = i_old + h/(2L) (v_new + v_old)
      //   branch row: v_p - v_n - (2L/h) i_new = -(v_old + (2L/h) i_old)
      for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
        const auto& ind = nl.inductors()[k];
        const std::size_t br = nl.inductorBranchIndex(k);
        if (ind.a != kGround) {
          A(nl.nodeIndex(ind.a), br) += 1.0;
          A(br, nl.nodeIndex(ind.a)) += 1.0;
        }
        if (ind.b != kGround) {
          A(nl.nodeIndex(ind.b), br) -= 1.0;
          A(br, nl.nodeIndex(ind.b)) -= 1.0;
        }
        const double zeq = 2.0 * ind.henry / h;
        A(br, br) -= zeq;
        rhs[br] = -(inds[k].vPrev + zeq * inds[k].iPrev);
      }

      // Trapezoidal companion: i = geq*(v - vPrev) - iPrev, geq = 2C/h.
      for (const auto& cs : caps) {
        const double geq = 2.0 * cs.c / h;
        stampG(A, nl, cs.a, cs.b, geq);
        const double ieq = -geq * cs.vPrev - cs.iPrev;
        stampI(rhs, nl, cs.a, cs.b, ieq);
      }

      // Diodes come after the linear companion stamps so the batched solver
      // (which adds per-iteration nonlinear stamps onto a precomputed linear
      // base matrix) accumulates every cell in the same order.
      for (const auto& d : nl.diodes()) {
        const double vak = vIter[static_cast<std::size_t>(d.a)] -
                           vIter[static_cast<std::size_t>(d.k)];
        const DiodeOp dop = evalDiode(d, vak, nl.tempK);
        stampG(A, nl, d.a, d.k, dop.gd);
        stampI(rhs, nl, d.a, d.k, dop.id - dop.gd * vak);
      }

      for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
        const auto& fet = nl.mosfets()[k];
        const MosOp op = evalMos(fet.params, fet.type, fet.geom,
                                 vIter[static_cast<std::size_t>(fet.d)],
                                 vIter[static_cast<std::size_t>(fet.g)],
                                 vIter[static_cast<std::size_t>(fet.s)],
                                 vIter[static_cast<std::size_t>(fet.b)], nl.tempK);
        addAt(A, nl, fet.d, fet.d, op.dIdVd);
        addAt(A, nl, fet.d, fet.g, op.dIdVg);
        addAt(A, nl, fet.d, fet.s, op.dIdVs);
        addAt(A, nl, fet.d, fet.b, op.dIdVb);
        addAt(A, nl, fet.s, fet.d, -op.dIdVd);
        addAt(A, nl, fet.s, fet.g, -op.dIdVg);
        addAt(A, nl, fet.s, fet.s, -op.dIdVs);
        addAt(A, nl, fet.s, fet.b, -op.dIdVb);
        const double ieq = op.ids -
                           op.dIdVd * vIter[static_cast<std::size_t>(fet.d)] -
                           op.dIdVg * vIter[static_cast<std::size_t>(fet.g)] -
                           op.dIdVs * vIter[static_cast<std::size_t>(fet.s)] -
                           op.dIdVb * vIter[static_cast<std::size_t>(fet.b)];
        stampI(rhs, nl, fet.d, fet.s, ieq);
      }

      for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
        const auto& src = nl.vsources()[k];
        const std::size_t br = nl.vsourceBranchIndex(k);
        if (src.p != kGround) {
          A(nl.nodeIndex(src.p), br) += 1.0;
          A(br, nl.nodeIndex(src.p)) += 1.0;
        }
        if (src.n != kGround) {
          A(nl.nodeIndex(src.n), br) -= 1.0;
          A(br, nl.nodeIndex(src.n)) -= 1.0;
        }
        rhs[br] = src.vdc;
      }
      for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
        const auto& e = nl.vcvs()[k];
        const std::size_t br = nl.vcvsBranchIndex(k);
        if (e.p != kGround) {
          A(nl.nodeIndex(e.p), br) += 1.0;
          A(br, nl.nodeIndex(e.p)) += 1.0;
        }
        if (e.n != kGround) {
          A(nl.nodeIndex(e.n), br) -= 1.0;
          A(br, nl.nodeIndex(e.n)) -= 1.0;
        }
        if (e.cp != kGround) A(br, nl.nodeIndex(e.cp)) -= e.gain;
        if (e.cn != kGround) A(br, nl.nodeIndex(e.cn)) += e.gain;
      }

      if (!lu.factor(A)) return result;
      x = lu.solve(rhs);

      double maxStep = 0.0;
      for (std::size_t i = 1; i < nl.nodeCount(); ++i) {
        const double dv = x[i - 1] - vIter[i];
        maxStep = std::max(maxStep, std::abs(dv));
        vIter[i] = x[i - 1];
      }
      if (maxStep < options.tolAbs) {
        converged = true;
        break;
      }
    }
    if (!converged) return result;

    // Accept the step: update companion states.
    for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
      const auto& ind = nl.inductors()[k];
      const double vNow = vIter[static_cast<std::size_t>(ind.a)] -
                          vIter[static_cast<std::size_t>(ind.b)];
      inds[k].iPrev = x[nl.inductorBranchIndex(k)];
      inds[k].vPrev = vNow;
    }
    for (auto& cs : caps) {
      const double vNow = vIter[static_cast<std::size_t>(cs.a)] -
                          vIter[static_cast<std::size_t>(cs.b)];
      const double geq = 2.0 * cs.c / h;
      const double iNow = geq * (vNow - cs.vPrev) - cs.iPrev;
      cs.vPrev = vNow;
      cs.iPrev = iNow;
    }
    v = vIter;
    result.times.push_back(static_cast<double>(step) * h);
    result.voltages.insert(result.voltages.end(), v.begin(), v.end());
    for (std::size_t k = 0; k < nBranches; ++k)
      result.branchCurrents.push_back(x[nl.nodeCount() - 1 + k]);
  }
  result.completed = true;
  return result;
}

/// The small-signal system of one netlist at a converged operating point:
/// conductance G, capacitance C (multiplied by jw per frequency) and the AC
/// excitation b.
struct AcSystem {
  linalg::Matrix g;  ///< conductance + source topology stamps
  linalg::Matrix c;  ///< capacitance stamps
  linalg::Vector b;  ///< AC excitation (vac / iac entries)
};

/// Linearize `nl` at `op`: MOSFETs become four-terminal conductances from the
/// DC Jacobian plus their gate and drain capacitances, diodes their
/// operating-point conductance.
inline AcSystem stampAc(const Netlist& nl, const DcResult& op) {
  using detail::addAt;
  using detail::stampG;
  assert(op.converged && "AC analysis requires a converged operating point");
  const std::size_t n = nl.unknownCount();
  AcSystem sys;
  linalg::Matrix& g = sys.g;
  linalg::Matrix& c = sys.c;
  g.resize(n, n);
  c.resize(n, n);
  sys.b.assign(n, 0.0);

  for (const auto& r : nl.resistors()) stampG(g, nl, r.a, r.b, 1.0 / r.ohms);
  for (const auto& cap : nl.capacitors()) stampG(c, nl, cap.a, cap.b, cap.farads);

  for (const auto& v : nl.vccs()) {
    addAt(g, nl, v.p, v.cp, v.gm);
    addAt(g, nl, v.p, v.cn, -v.gm);
    addAt(g, nl, v.n, v.cp, -v.gm);
    addAt(g, nl, v.n, v.cn, v.gm);
  }

  assert(op.diodeConductances.size() == nl.diodes().size());
  for (std::size_t k = 0; k < nl.diodes().size(); ++k) {
    const auto& d = nl.diodes()[k];
    stampG(g, nl, d.a, d.k, op.diodeConductances[k]);
  }

  // Inductors: branch equation v_p - v_n - jwL * i = 0, with the jwL term in
  // C (a negative L on the branch diagonal).
  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const auto& ind = nl.inductors()[k];
    const std::size_t br = nl.inductorBranchIndex(k);
    if (ind.a != kGround) {
      g(nl.nodeIndex(ind.a), br) += 1.0;
      g(br, nl.nodeIndex(ind.a)) += 1.0;
    }
    if (ind.b != kGround) {
      g(nl.nodeIndex(ind.b), br) -= 1.0;
      g(br, nl.nodeIndex(ind.b)) -= 1.0;
    }
    c(br, br) -= ind.henry;
  }

  assert(op.mosOps.size() == nl.mosfets().size());
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& fet = nl.mosfets()[k];
    const MosOp& o = op.mosOps[k];
    addAt(g, nl, fet.d, fet.d, o.dIdVd);
    addAt(g, nl, fet.d, fet.g, o.dIdVg);
    addAt(g, nl, fet.d, fet.s, o.dIdVs);
    addAt(g, nl, fet.d, fet.b, o.dIdVb);
    addAt(g, nl, fet.s, fet.d, -o.dIdVd);
    addAt(g, nl, fet.s, fet.g, -o.dIdVg);
    addAt(g, nl, fet.s, fet.s, -o.dIdVs);
    addAt(g, nl, fet.s, fet.b, -o.dIdVb);

    const double cgg = gateCapacitance(fet.params, fet.geom);
    stampG(c, nl, fet.g, fet.s, 0.7 * cgg);
    stampG(c, nl, fet.g, fet.d, 0.3 * cgg);  // Miller path
    stampG(c, nl, fet.d, fet.b, drainCapacitance(fet.params, fet.geom));
  }

  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const std::size_t br = nl.vsourceBranchIndex(k);
    if (src.p != kGround) {
      g(nl.nodeIndex(src.p), br) += 1.0;
      g(br, nl.nodeIndex(src.p)) += 1.0;
    }
    if (src.n != kGround) {
      g(nl.nodeIndex(src.n), br) -= 1.0;
      g(br, nl.nodeIndex(src.n)) -= 1.0;
    }
    sys.b[br] = src.vac;
  }

  for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
    const auto& e = nl.vcvs()[k];
    const std::size_t br = nl.vcvsBranchIndex(k);
    if (e.p != kGround) {
      g(nl.nodeIndex(e.p), br) += 1.0;
      g(br, nl.nodeIndex(e.p)) += 1.0;
    }
    if (e.n != kGround) {
      g(nl.nodeIndex(e.n), br) -= 1.0;
      g(br, nl.nodeIndex(e.n)) -= 1.0;
    }
    if (e.cp != kGround) g(br, nl.nodeIndex(e.cp)) -= e.gain;
    if (e.cn != kGround) g(br, nl.nodeIndex(e.cn)) += e.gain;
  }

  for (const auto& src : nl.isources()) {
    if (src.iac == 0.0) continue;
    if (src.p != kGround) sys.b[nl.nodeIndex(src.p)] -= src.iac;
    if (src.n != kGround) sys.b[nl.nodeIndex(src.n)] += src.iac;
  }
  return sys;
}

/// Solve (G + jwC) x = rhs at one frequency through the scalar complex LU;
/// rhs defaults to the stamped excitation b. A numerically singular system
/// yields the zero vector.
inline linalg::ComplexVector solveAc(const AcSystem& sys, double freqHz,
                                     const linalg::Vector* rhs = nullptr) {
  const std::size_t n = sys.g.rows();
  const double w = 2.0 * std::numbers::pi * freqHz;
  linalg::ComplexMatrix A(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) A(r, c) = {sys.g(r, c), w * sys.c(r, c)};
  const linalg::Vector& src = rhs != nullptr ? *rhs : sys.b;
  linalg::ComplexVector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = src[i];
  auto x = linalg::LuSolver<std::complex<double>>::solveSystem(A, b);
  if (!x) return linalg::ComplexVector(n, {0.0, 0.0});
  return *x;
}

}  // namespace trdse::sim::reference
