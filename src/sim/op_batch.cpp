// Batched operating-point engines. See op_batch.hpp for the lane-equivalence
// contract. Everything here replicates the reference solvers' floating-point
// expressions (tests/sim_reference.hpp) literally, per lane, in the
// reference stamp order; this TU is compiled with FP contraction off (see
// CMakeLists.txt), like the reference's test TU, so the replicated
// expressions cannot fuse differently there and here.
#include "sim/op_batch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "core/simd.hpp"
#include "linalg/cxmath.hpp"
#include "linalg/lu.hpp"
#include "sim/assembly_plan.hpp"
#include "sim/diode.hpp"
#include "sim/sim_profile.hpp"

namespace trdse::sim {

namespace {

constexpr int L = kSimLanes;

using simd::V4d;
using simd::V4i;
using simd::V4u;
using simd::V8d;

// ---------------------------------------------------------------------------
// Lane-blocked dense MNA system: entry (r, c) of lane l lives at
// a[(r*n + c)*L + l], so the four lanes of one cell are contiguous and the
// elimination / stamp inner loops vectorize across lanes.
// ---------------------------------------------------------------------------
struct LaneSystem {
  std::size_t n = 0;
  std::vector<double> a;    // (r*n + c)*L + l
  std::vector<double> rhs;  // i*L + l

  void reset(std::size_t dim) {
    n = dim;
    a.assign(n * n * static_cast<std::size_t>(L), 0.0);
    rhs.assign(n * static_cast<std::size_t>(L), 0.0);
  }
  void zero() {
    std::fill(a.begin(), a.end(), 0.0);
    std::fill(rhs.begin(), rhs.end(), 0.0);
  }
  double& at(std::size_t r, std::size_t c, int l) {
    return a[(r * n + c) * L + static_cast<std::size_t>(l)];
  }
  double& rv(std::size_t i, int l) {
    return rhs[i * L + static_cast<std::size_t>(l)];
  }
};

/// Lanes that are frozen, dead, or unused still go through the shared LU, so
/// give them a benign identity system (diag 1, rhs 0): factoring stays finite
/// and their solve output is all zeros (and discarded).
void clearLaneToIdentity(LaneSystem& sys, int l) {
  for (std::size_t r = 0; r < sys.n; ++r)
    for (std::size_t c = 0; c < sys.n; ++c) sys.at(r, c, l) = (r == c) ? 1.0 : 0.0;
  for (std::size_t i = 0; i < sys.n; ++i) sys.rv(i, l) = 0.0;
}

// Per-lane stamp helpers mirroring the reference solvers' stampG/stampI/addAt
// (same ground skips, same += order).
void stampG(LaneSystem& sys, const Netlist& nl, int l, NodeId a, NodeId b,
            double g) {
  if (a != kGround) {
    const std::size_t ia = nl.nodeIndex(a);
    sys.at(ia, ia, l) += g;
    if (b != kGround) sys.at(ia, nl.nodeIndex(b), l) -= g;
  }
  if (b != kGround) {
    const std::size_t ib = nl.nodeIndex(b);
    sys.at(ib, ib, l) += g;
    if (a != kGround) sys.at(ib, nl.nodeIndex(a), l) -= g;
  }
}

void stampI(LaneSystem& sys, const Netlist& nl, int l, NodeId a, NodeId b,
            double i) {
  if (a != kGround) sys.rv(nl.nodeIndex(a), l) -= i;
  if (b != kGround) sys.rv(nl.nodeIndex(b), l) += i;
}

/// stampI into a bare lane-blocked vector (the transient per-step RHS).
void stampIVec(std::vector<double>& rhsB, const Netlist& nl, int l, NodeId a,
               NodeId b, double i) {
  if (a != kGround) rhsB[nl.nodeIndex(a) * L + static_cast<std::size_t>(l)] -= i;
  if (b != kGround) rhsB[nl.nodeIndex(b) * L + static_cast<std::size_t>(l)] += i;
}

void addAt(LaneSystem& sys, const Netlist& nl, int l, NodeId r, NodeId cNode,
           double c) {
  if (r == kGround || cNode == kGround) return;
  sys.at(nl.nodeIndex(r), nl.nodeIndex(cNode), l) += c;
}

// ---------------------------------------------------------------------------
// Lane-blocked real LU. Pivot choice and row swaps are per lane (identical to
// the scalar LuSolver's partial pivoting, decided on the lane's own values);
// the elimination arithmetic runs vectorized across the lane dimension, which
// per lane is the exact op sequence scalar factor() performs.
// ---------------------------------------------------------------------------
struct LaneLu {
  std::size_t n = 0;
  std::vector<double> lu;           // (r*n + c)*L + l
  std::vector<std::size_t> perm;    // i*L + l
  bool ok[L] = {};                  // per-lane "factored and nonsingular"

  /// Copy the (linear image) system in. The per-iteration nonlinear stamps
  /// then scatter straight into data() and factorInPlace() runs on it — one
  /// matrix copy per Newton round instead of the old stamp-into-work +
  /// copy-into-lu two-pass.
  void load(const LaneSystem& sys) {
    n = sys.n;
    lu.assign(sys.a.begin(), sys.a.end());
  }

  double* data() { return lu.data(); }

  void factorInPlace(const bool* want) {
    perm.resize(n * L);
    for (std::size_t i = 0; i < n; ++i)
      for (int l = 0; l < L; ++l) perm[i * L + l] = i;
    for (int l = 0; l < L; ++l) ok[l] = want[l];
    double* __restrict a = lu.data();

    for (std::size_t k = 0; k < n; ++k) {
      // Per-lane partial pivoting: largest magnitude in column k, as an
      // explicit 4-lane scan with a strict-greater first-wins mask blend. Per
      // lane the selection is identical to the scalar solver's (the mask only
      // fires on strictly greater, so ties and NaN candidates keep the
      // earlier row, like the scalar `>`). Dead lanes scan garbage
      // harmlessly.
      V4d best = simd::abs4(simd::load4(a + (k * n + k) * L));
      V4i pivotRow = simd::splatI4(static_cast<std::int64_t>(k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const V4d m = simd::abs4(simd::load4(a + (r * n + k) * L));
        const V4i better = m > best;
        best = simd::select4(better, m, best);
        pivotRow = simd::selectI4(
            better, simd::splatI4(static_cast<std::int64_t>(r)), pivotRow);
      }
      for (int l = 0; l < L; ++l)
        if (ok[l] && best[l] < 1e-300)
          ok[l] = false;  // numerically singular (this lane only)
      const std::int64_t p0 = pivotRow[0];
      if (pivotRow[1] == p0 && pivotRow[2] == p0 && pivotRow[3] == p0) {
        // All lanes agree on the pivot (the common case for same-topology
        // batches): swap whole 4-lane rows. Pure data movement; dead lanes
        // ride along unobservably (their solution is never read).
        const std::size_t pivot = static_cast<std::size_t>(p0);
        if (pivot != k) {
          for (int l = 0; l < L; ++l)
            std::swap(perm[k * L + l], perm[pivot * L + l]);
          for (std::size_t c = 0; c < n; ++c) {
            const V4d rk = simd::load4(a + (k * n + c) * L);
            const V4d rp = simd::load4(a + (pivot * n + c) * L);
            simd::store4(a + (k * n + c) * L, rp);
            simd::store4(a + (pivot * n + c) * L, rk);
          }
        }
      } else {
        for (int l = 0; l < L; ++l) {
          if (!ok[l]) continue;
          const std::size_t pivot = static_cast<std::size_t>(pivotRow[l]);
          if (pivot != k) {
            std::swap(perm[k * L + l], perm[pivot * L + l]);
            for (std::size_t c = 0; c < n; ++c)
              std::swap(a[(k * n + c) * L + l], a[(pivot * n + c) * L + l]);
          }
        }
      }
      // Vectorized elimination. Lanes flagged !ok may compute garbage
      // (inf/NaN) here; their results are never read. rowR and rowK address
      // disjoint rows (r > k), so __restrict is legal. Row k's pivot lanes
      // are not written during the update of rows below it, so hoisting the
      // load is value-identical to reloading per row.
      const double* __restrict rowK = a + (k * n) * L;
      const V4d piv = simd::load4(rowK + k * L);
      // Two-row blocking shares each pivot-row load between rows r and r+1;
      // each row still runs exactly its scalar expression sequence.
      std::size_t r = k + 1;
      for (; r + 1 < n; r += 2) {
        double* __restrict rowR = a + (r * n) * L;
        double* __restrict rowQ = a + ((r + 1) * n) * L;
        const V4d f0 = simd::load4(rowR + k * L) / piv;
        const V4d f1 = simd::load4(rowQ + k * L) / piv;
        simd::store4(rowR + k * L, f0);
        simd::store4(rowQ + k * L, f1);
        for (std::size_t c = k + 1; c < n; ++c) {
          const V4d kc = simd::load4(rowK + c * L);
          simd::store4(rowR + c * L, simd::load4(rowR + c * L) - f0 * kc);
          simd::store4(rowQ + c * L, simd::load4(rowQ + c * L) - f1 * kc);
        }
      }
      for (; r < n; ++r) {
        double* __restrict rowR = a + (r * n) * L;
        const V4d f = simd::load4(rowR + k * L) / piv;
        simd::store4(rowR + k * L, f);
        for (std::size_t c = k + 1; c < n; ++c)
          simd::store4(rowR + c * L,
                       simd::load4(rowR + c * L) - f * simd::load4(rowK + c * L));
      }
    }
  }

  /// Per lane this is exactly LuSolver<double>::solveInto. `bB` must not
  /// alias `xB` (callers pass the system RHS and a separate solution
  /// buffer). The permutation gather stays scalar (lane-dependent rows); the
  /// triangular accumulations run as one V4d chain per row.
  void solve(const std::vector<double>& bB, std::vector<double>& xB) const {
    xB.resize(n * L);
    const double* __restrict lup = lu.data();
    const double* __restrict b = bB.data();
    double* __restrict x = xB.data();
    const std::size_t* __restrict pp = perm.data();
    for (std::size_t i = 0; i < n; ++i) {
      double init[L];
      for (int l = 0; l < L; ++l) init[l] = b[pp[i * L + l] * L + l];
      V4d acc = simd::load4(init);
      for (std::size_t j = 0; j < i; ++j)
        acc = acc - simd::load4(lup + (i * n + j) * L) * simd::load4(x + j * L);
      simd::store4(x + i * L, acc);
    }
    for (std::size_t ii = n; ii-- > 0;) {
      V4d acc = simd::load4(x + ii * L);
      for (std::size_t j = ii + 1; j < n; ++j)
        acc = acc - simd::load4(lup + (ii * n + j) * L) * simd::load4(x + j * L);
      simd::store4(x + ii * L, acc / simd::load4(lup + (ii * n + ii) * L));
    }
  }
};

// ---------------------------------------------------------------------------
// Per-device AoSoA contexts + per-round operating-point blocks. Lanes whose
// netlist pointer is null copy the reference lane's context (their outputs
// are never read, but the kernels must not see indeterminate inputs).
// ---------------------------------------------------------------------------
struct DeviceBlocks {
  std::vector<MosCtxBlock> mosCtx;
  std::vector<MosOpBlock> mosOp;
  std::vector<DiodeCtxBlock> dioCtx;
  std::vector<DiodeOpBlock> dioOp;
};

void buildDeviceBlocks(const std::array<const Netlist*, kSimLanes>& nls, int ref,
                       DeviceBlocks& db) {
  const Netlist& rnl = *nls[ref];
  db.mosCtx.resize(rnl.mosfets().size());
  db.mosOp.resize(rnl.mosfets().size());
  for (std::size_t k = 0; k < rnl.mosfets().size(); ++k) {
    for (int l = 0; l < L; ++l) {
      const Netlist& nl = nls[l] != nullptr ? *nls[l] : rnl;
      const auto& fet = nl.mosfets()[k];
      const MosDeviceCtx c = makeMosCtx(fet.params, fet.type, fet.geom, nl.tempK);
      db.mosCtx[k].sign[l] = c.sign;
      db.mosCtx[k].vt[l] = c.vt;
      db.mosCtx[k].n[l] = c.n;
      db.mosCtx[k].ispec[l] = c.ispec;
      db.mosCtx[k].sq0[l] = c.sq0;
      db.mosCtx[k].lambda[l] = c.lambda;
      db.mosCtx[k].vth0[l] = c.vth0;
      db.mosCtx[k].gamma[l] = c.gamma;
      db.mosCtx[k].phi[l] = c.phi;
      db.mosCtx[k].invN[l] = c.invN;
      db.mosCtx[k].invVtN[l] = c.invVtN;
      db.mosCtx[k].negInvVt[l] = c.negInvVt;
    }
  }
  db.dioCtx.resize(rnl.diodes().size());
  db.dioOp.resize(rnl.diodes().size());
  for (std::size_t k = 0; k < rnl.diodes().size(); ++k) {
    for (int l = 0; l < L; ++l) {
      const Netlist& nl = nls[l] != nullptr ? *nls[l] : rnl;
      const auto& d = nl.diodes()[k];
      db.dioCtx[k].isat[l] = d.isat;
      // Same expression evalDiode uses; contraction is off in both TUs.
      db.dioCtx[k].vt[l] = thermalVoltage(nl.tempK) * d.emission;
    }
  }
}

/// One lockstep round of device-card evaluation at each lane's current
/// voltages. Lanes with a null vector gather 0.0 (benign inputs; the outputs
/// of those lanes are discarded) — a dead lane's last iterate may hold
/// non-finite values the kernels must never see.
void evalDeviceBlocks(const Netlist& rnl, DeviceBlocks& db,
                      const std::array<const linalg::Vector*, kSimLanes>& v) {
  for (std::size_t k = 0; k < rnl.mosfets().size(); ++k) {
    const auto& fet = rnl.mosfets()[k];
    double vd[L], vg[L], vs[L], vb[L];
    for (int l = 0; l < L; ++l) {
      if (v[l] != nullptr) {
        vd[l] = (*v[l])[static_cast<std::size_t>(fet.d)];
        vg[l] = (*v[l])[static_cast<std::size_t>(fet.g)];
        vs[l] = (*v[l])[static_cast<std::size_t>(fet.s)];
        vb[l] = (*v[l])[static_cast<std::size_t>(fet.b)];
      } else {
        vd[l] = vg[l] = vs[l] = vb[l] = 0.0;
      }
    }
    evalMosBlock(db.mosCtx[k], vd, vg, vs, vb, db.mosOp[k]);
  }
  for (std::size_t k = 0; k < rnl.diodes().size(); ++k) {
    const auto& d = rnl.diodes()[k];
    double vak[L];
    for (int l = 0; l < L; ++l) {
      vak[l] = v[l] != nullptr ? (*v[l])[static_cast<std::size_t>(d.a)] -
                                     (*v[l])[static_cast<std::size_t>(d.k)]
                               : 0.0;
    }
    evalDiodeBlock(db.dioCtx[k], vak, db.dioOp[k]);
  }
}

/// clearLaneToIdentity on raw lane-blocked matrix/rhs storage (the LU panel a
/// plan scatter is about to run on).
void clearLaneRawToIdentity(double* a, double* rhs, std::size_t n, int l) {
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      a[(r * n + c) * L + static_cast<std::size_t>(l)] = (r == c) ? 1.0 : 0.0;
  for (std::size_t i = 0; i < n; ++i)
    rhs[i * L + static_cast<std::size_t>(l)] = 0.0;
}

/// Nonlinear (diode/MOS) Newton stamps through the precompiled plan tables,
/// with the lane loop innermost: the four lanes of one matrix cell are
/// contiguous, so each cell update is one vector add. Per lane this
/// accumulates exactly the scalar per-iteration sequence (diodes in netlist
/// order, then MOSFETs, same addAt order per device — distinct lanes are
/// independent slots, so interleaving across lanes is order-free). Lanes with
/// on[l] false blend in an addend of exactly 0.0, leaving their cells
/// bit-unchanged; their op-block values are finite (evalDeviceBlocks feeds
/// dead lanes 0.0 inputs) and their voltage gathers are masked to 0.0 so no
/// NaN enters the blend. Shared by the batched DC and transient engines —
/// both stamp the same linearized device companions onto their respective
/// linear images.
void scatterNonlinear(double* __restrict wa, double* __restrict wr,
                      const AssemblyPlan& plan, const DeviceBlocks& db,
                      const std::array<const linalg::Vector*, kSimLanes>& v,
                      const bool* on) {
  for (std::size_t k = 0; k < plan.dioIdx.size(); ++k) {
    const DiodeStampIdx& ix = plan.dioIdx[k];
    const DiodeOpBlock& op = db.dioOp[k];
    double mgd[L], ieq[L];
    for (int l = 0; l < L; ++l) {
      const double vak = on[l] ? (*v[l])[static_cast<std::size_t>(ix.a)] -
                                     (*v[l])[static_cast<std::size_t>(ix.k)]
                               : 0.0;
      const double gd = on[l] ? op.gd[l] : 0.0;
      const double id = on[l] ? op.id[l] : 0.0;
      mgd[l] = gd;
      ieq[l] = id - gd * vak;
    }
    if (ix.cell[0] >= 0)
      for (int l = 0; l < L; ++l) wa[ix.cell[0] * L + l] += mgd[l];
    if (ix.cell[1] >= 0)
      for (int l = 0; l < L; ++l) wa[ix.cell[1] * L + l] -= mgd[l];
    if (ix.cell[2] >= 0)
      for (int l = 0; l < L; ++l) wa[ix.cell[2] * L + l] += mgd[l];
    if (ix.cell[3] >= 0)
      for (int l = 0; l < L; ++l) wa[ix.cell[3] * L + l] -= mgd[l];
    if (ix.rhsA >= 0)
      for (int l = 0; l < L; ++l) wr[ix.rhsA * L + l] -= ieq[l];
    if (ix.rhsK >= 0)
      for (int l = 0; l < L; ++l) wr[ix.rhsK * L + l] += ieq[l];
  }
  for (std::size_t k = 0; k < plan.mosIdx.size(); ++k) {
    const MosStampIdx& ix = plan.mosIdx[k];
    const MosOpBlock& op = db.mosOp[k];
    double mv[4][L], ieq[L];
    for (int l = 0; l < L; ++l) {
      mv[0][l] = on[l] ? op.dIdVd[l] : 0.0;
      mv[1][l] = on[l] ? op.dIdVg[l] : 0.0;
      mv[2][l] = on[l] ? op.dIdVs[l] : 0.0;
      mv[3][l] = on[l] ? op.dIdVb[l] : 0.0;
    }
    for (int l = 0; l < L; ++l) {
      const double ids = on[l] ? op.ids[l] : 0.0;
      const double vd = on[l] ? (*v[l])[static_cast<std::size_t>(ix.d)] : 0.0;
      const double vg = on[l] ? (*v[l])[static_cast<std::size_t>(ix.g)] : 0.0;
      const double vs = on[l] ? (*v[l])[static_cast<std::size_t>(ix.s)] : 0.0;
      const double vb = on[l] ? (*v[l])[static_cast<std::size_t>(ix.b)] : 0.0;
      ieq[l] = ids - mv[0][l] * vd - mv[1][l] * vg - mv[2][l] * vs -
               mv[3][l] * vb;
    }
    for (int e = 0; e < 4; ++e)
      if (ix.cell[e] >= 0)
        for (int l = 0; l < L; ++l) wa[ix.cell[e] * L + l] += mv[e][l];
    for (int e = 0; e < 4; ++e)
      if (ix.cell[4 + e] >= 0)
        for (int l = 0; l < L; ++l) wa[ix.cell[4 + e] * L + l] -= mv[e][l];
    if (ix.rhsD >= 0)
      for (int l = 0; l < L; ++l) wr[ix.rhsD * L + l] -= ieq[l];
    if (ix.rhsS >= 0)
      for (int l = 0; l < L; ++l) wr[ix.rhsS * L + l] += ieq[l];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// sameTopology
// ---------------------------------------------------------------------------
bool sameTopology(const Netlist& a, const Netlist& b) {
  if (a.nodeCount() != b.nodeCount()) return false;
  if (a.resistors().size() != b.resistors().size() ||
      a.capacitors().size() != b.capacitors().size() ||
      a.vsources().size() != b.vsources().size() ||
      a.isources().size() != b.isources().size() ||
      a.vcvs().size() != b.vcvs().size() || a.vccs().size() != b.vccs().size() ||
      a.diodes().size() != b.diodes().size() ||
      a.inductors().size() != b.inductors().size() ||
      a.mosfets().size() != b.mosfets().size())
    return false;
  for (std::size_t i = 0; i < a.resistors().size(); ++i)
    if (a.resistors()[i].a != b.resistors()[i].a ||
        a.resistors()[i].b != b.resistors()[i].b)
      return false;
  for (std::size_t i = 0; i < a.capacitors().size(); ++i)
    if (a.capacitors()[i].a != b.capacitors()[i].a ||
        a.capacitors()[i].b != b.capacitors()[i].b)
      return false;
  for (std::size_t i = 0; i < a.vsources().size(); ++i)
    if (a.vsources()[i].p != b.vsources()[i].p ||
        a.vsources()[i].n != b.vsources()[i].n)
      return false;
  for (std::size_t i = 0; i < a.isources().size(); ++i)
    if (a.isources()[i].p != b.isources()[i].p ||
        a.isources()[i].n != b.isources()[i].n)
      return false;
  for (std::size_t i = 0; i < a.vcvs().size(); ++i)
    if (a.vcvs()[i].p != b.vcvs()[i].p || a.vcvs()[i].n != b.vcvs()[i].n ||
        a.vcvs()[i].cp != b.vcvs()[i].cp || a.vcvs()[i].cn != b.vcvs()[i].cn)
      return false;
  for (std::size_t i = 0; i < a.vccs().size(); ++i)
    if (a.vccs()[i].p != b.vccs()[i].p || a.vccs()[i].n != b.vccs()[i].n ||
        a.vccs()[i].cp != b.vccs()[i].cp || a.vccs()[i].cn != b.vccs()[i].cn)
      return false;
  for (std::size_t i = 0; i < a.diodes().size(); ++i)
    if (a.diodes()[i].a != b.diodes()[i].a || a.diodes()[i].k != b.diodes()[i].k)
      return false;
  for (std::size_t i = 0; i < a.inductors().size(); ++i)
    if (a.inductors()[i].a != b.inductors()[i].a ||
        a.inductors()[i].b != b.inductors()[i].b)
      return false;
  for (std::size_t i = 0; i < a.mosfets().size(); ++i)
    if (a.mosfets()[i].d != b.mosfets()[i].d ||
        a.mosfets()[i].g != b.mosfets()[i].g ||
        a.mosfets()[i].s != b.mosfets()[i].s ||
        a.mosfets()[i].b != b.mosfets()[i].b)
      return false;
  return true;
}

// ---------------------------------------------------------------------------
// Batched DC
// ---------------------------------------------------------------------------
namespace {

// The DC fallback ladder (reference solveDc), phase-encoded:
//   0        plain Newton from the guess
//   1..9     gmin stepping (kGminLadder), warm-started
//   10       retry at opts.gmin from the gmin-ladder warm vector (terminal on
//            convergence)
//   11..19   source stepping (kSrcLadder) at gmin = 1e-9
//   20       final attempt at opts.gmin (terminal regardless)
constexpr double kGminLadder[9] = {1e-3, 1e-4, 1e-5, 1e-6, 1e-7,
                                   1e-8, 1e-9, 1e-10, 1e-11};
constexpr double kSrcLadder[9] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

struct DcLane {
  bool active = false;
  bool done = false;
  int phase = 0;
  int iter = 0;        ///< completed iterations of the current loop
  int iterations = 0;  ///< reference result.iterations bookkeeping
  double gmin = 0.0;
  double srcScale = 1.0;
  linalg::Vector v;     ///< current iterate (reference result.v)
  linalg::Vector v0;    ///< original guess
  linalg::Vector warm;  ///< warm-start carry between ladder loops
  std::vector<double> xSave;  ///< solution column of the converged iteration
  DcResult result;
};

void dcEndLoop(DcLane& ln, bool converged, const Netlist& nl,
               const DcOptions& opts);

void dcStartLoop(DcLane& ln, const linalg::Vector& start, double gmin,
                 double srcScale, const Netlist& nl, const DcOptions& opts) {
  ln.v = start;
  ln.gmin = gmin;
  ln.srcScale = srcScale;
  ln.iter = 0;
  ln.iterations = 0;
  if (opts.maxIterations <= 0) dcEndLoop(ln, false, nl, opts);
}

/// Converged terminal loop: the reference newtonLoop's finalization,
/// through the same scalar device kernels.
void dcFinalize(DcLane& ln, const Netlist& nl) {
  DcResult& r = ln.result;
  r.converged = true;
  r.iterations = ln.iterations;
  r.v = ln.v;
  r.branchCurrents.assign(nl.branchCount(), 0.0);
  for (std::size_t k = 0; k < nl.branchCount(); ++k)
    r.branchCurrents[k] = ln.xSave[nl.nodeCount() - 1 + k];
  r.diodeConductances.resize(nl.diodes().size());
  for (std::size_t k = 0; k < nl.diodes().size(); ++k) {
    const auto& d = nl.diodes()[k];
    const double vak =
        r.v[static_cast<std::size_t>(d.a)] - r.v[static_cast<std::size_t>(d.k)];
    r.diodeConductances[k] = evalDiode(d, vak, nl.tempK).gd;
  }
  r.mosOps.resize(nl.mosfets().size());
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& fet = nl.mosfets()[k];
    r.mosOps[k] = evalMos(fet.params, fet.type, fet.geom,
                          r.v[static_cast<std::size_t>(fet.d)],
                          r.v[static_cast<std::size_t>(fet.g)],
                          r.v[static_cast<std::size_t>(fet.s)],
                          r.v[static_cast<std::size_t>(fet.b)], nl.tempK);
  }
  ln.done = true;
}

void dcEndLoop(DcLane& ln, bool converged, const Netlist& nl,
               const DcOptions& opts) {
  if (ln.phase == 0) {
    if (converged) {
      dcFinalize(ln, nl);
      return;
    }
    ln.warm = ln.v0;
    ln.phase = 1;
    dcStartLoop(ln, ln.warm, kGminLadder[0], 1.0, nl, opts);
  } else if (ln.phase >= 1 && ln.phase <= 9) {
    if (converged) ln.warm = ln.v;
    if (ln.phase < 9) {
      ++ln.phase;
      dcStartLoop(ln, ln.warm, kGminLadder[ln.phase - 1], 1.0, nl, opts);
    } else {
      ln.phase = 10;
      dcStartLoop(ln, ln.warm, opts.gmin, 1.0, nl, opts);
    }
  } else if (ln.phase == 10) {
    if (converged) {
      dcFinalize(ln, nl);
      return;
    }
    ln.warm = ln.v0;
    ln.phase = 11;
    dcStartLoop(ln, ln.warm, 1e-9, kSrcLadder[0], nl, opts);
  } else if (ln.phase >= 11 && ln.phase <= 19) {
    if (converged) ln.warm = ln.v;
    if (ln.phase < 19) {
      ++ln.phase;
      dcStartLoop(ln, ln.warm, 1e-9, kSrcLadder[ln.phase - 11], nl, opts);
    } else {
      ln.phase = 20;
      dcStartLoop(ln, ln.warm, opts.gmin, 1.0, nl, opts);
    }
  } else {  // phase 20: terminal regardless
    if (converged) {
      dcFinalize(ln, nl);
      return;
    }
    ln.result.converged = false;
    ln.result.iterations = ln.iterations;
    ln.result.v = ln.v;
    ln.done = true;
  }
}

/// Lane l's *linear* DC image for one (gmin, srcScale) ladder setting:
/// everything the reference newtonLoop stamps that does not depend on the
/// Newton iterate — resistors, the gmin diagonal, current sources, VCCS,
/// inductor / vsource / vcvs branch rows, and the vsource RHS assignments.
/// The per-iteration diode/MOS stamps are scattered onto a copy of this image
/// each round; the split is bitwise-safe because every matrix cell and RHS
/// row a nonlinear device touches receives its linear contributions from
/// stamps that also precede the nonlinear ones in newtonLoop's order (the
/// later linear stamps — inductor/vsource/vcvs — only touch branch
/// rows/columns, which are disjoint from the node-node cells and node RHS
/// rows the diode/MOS stamps accumulate into).
void stampDcLinear(LaneSystem& sys, const Netlist& nl, int l, double gmin,
                   double srcScale) {
  for (const auto& r : nl.resistors()) stampG(sys, nl, l, r.a, r.b, 1.0 / r.ohms);
  for (std::size_t i = 1; i < nl.nodeCount(); ++i) {
    const std::size_t d = nl.nodeIndex(static_cast<NodeId>(i));
    sys.at(d, d, l) += gmin;
  }
  for (const auto& src : nl.isources())
    stampI(sys, nl, l, src.p, src.n, src.idc * srcScale);
  for (const auto& g : nl.vccs()) {
    addAt(sys, nl, l, g.p, g.cp, g.gm);
    addAt(sys, nl, l, g.p, g.cn, -g.gm);
    addAt(sys, nl, l, g.n, g.cp, -g.gm);
    addAt(sys, nl, l, g.n, g.cn, g.gm);
  }
  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const auto& ind = nl.inductors()[k];
    const std::size_t br = nl.inductorBranchIndex(k);
    if (ind.a != kGround) {
      sys.at(nl.nodeIndex(ind.a), br, l) += 1.0;
      sys.at(br, nl.nodeIndex(ind.a), l) += 1.0;
    }
    if (ind.b != kGround) {
      sys.at(nl.nodeIndex(ind.b), br, l) -= 1.0;
      sys.at(br, nl.nodeIndex(ind.b), l) -= 1.0;
    }
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const std::size_t br = nl.vsourceBranchIndex(k);
    if (src.p != kGround) {
      sys.at(nl.nodeIndex(src.p), br, l) += 1.0;
      sys.at(br, nl.nodeIndex(src.p), l) += 1.0;
    }
    if (src.n != kGround) {
      sys.at(nl.nodeIndex(src.n), br, l) -= 1.0;
      sys.at(br, nl.nodeIndex(src.n), l) -= 1.0;
    }
    sys.rv(br, l) = src.vdc * srcScale;
  }
  for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
    const auto& e = nl.vcvs()[k];
    const std::size_t br = nl.vcvsBranchIndex(k);
    if (e.p != kGround) {
      sys.at(nl.nodeIndex(e.p), br, l) += 1.0;
      sys.at(br, nl.nodeIndex(e.p), l) += 1.0;
    }
    if (e.n != kGround) {
      sys.at(nl.nodeIndex(e.n), br, l) -= 1.0;
      sys.at(br, nl.nodeIndex(e.n), l) -= 1.0;
    }
    if (e.cp != kGround) sys.at(br, nl.nodeIndex(e.cp), l) -= e.gain;
    if (e.cn != kGround) sys.at(br, nl.nodeIndex(e.cn), l) += e.gain;
  }
}

void zeroLane(LaneSystem& sys, int l) {
  for (std::size_t i = 0; i < sys.n * sys.n; ++i)
    sys.a[i * L + static_cast<std::size_t>(l)] = 0.0;
  for (std::size_t i = 0; i < sys.n; ++i)
    sys.rv(i, l) = 0.0;
}

// ---------------------------------------------------------------------------
// Persistent batch workspaces. One solve used to allocate its lane system,
// LU panel, permutation array and solution buffer fresh (~20 heap
// allocations); engine pool workers run thousands of solves over the same
// one or two matrix sizes, so the buffers are pooled per thread and reused.
// Ownership rules (see docs/ARCHITECTURE.md): a workspace holds *values*,
// never structure — every acquire re-derives sizes from the netlists at
// hand, so a workspace that last served a different topology simply
// re-sizes (vector::assign reuses capacity). Lease lifetime is the solve
// call (DC) or the TransientBatch object; workspaces never outlive their
// thread's freelist.
// ---------------------------------------------------------------------------
struct BatchWorkspace {
  LaneSystem lin;  ///< linear image: DC ladder image / transient base (+ rhs)
  LaneLu lu;
  std::vector<double> workRhs;
  std::vector<double> stepRhs;
  std::vector<double> xB;
  DeviceBlocks db;
  std::array<DcLane, L> dcLanes;
};

std::vector<std::unique_ptr<BatchWorkspace>>& workspacePool() {
  thread_local std::vector<std::unique_ptr<BatchWorkspace>> pool;
  return pool;
}

struct WorkspaceLease {
  std::unique_ptr<BatchWorkspace> ws;

  WorkspaceLease() {
    auto& pool = workspacePool();
    if (!pool.empty()) {
      ws = std::move(pool.back());
      pool.pop_back();
    } else {
      ws = std::make_unique<BatchWorkspace>();
    }
  }
  ~WorkspaceLease() {
    auto& pool = workspacePool();
    // Bounded: a worker thread at steady state holds one DC lease plus a
    // handful of live TransientBatch objects.
    if (ws != nullptr && pool.size() < 8) pool.push_back(std::move(ws));
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  BatchWorkspace& operator*() { return *ws; }
  BatchWorkspace* operator->() { return ws.get(); }
};

}  // namespace

std::array<DcResult, kSimLanes> solveDcBatch(
    const std::array<const Netlist*, kSimLanes>& nls,
    const std::array<const linalg::Vector*, kSimLanes>& guesses,
    const DcOptions& opts) {
  std::array<DcResult, kSimLanes> out;
  int ref = -1;
  for (int l = 0; l < L; ++l)
    if (nls[l] != nullptr && ref < 0) ref = l;
  if (ref < 0) return out;
  const Netlist& rnl = *nls[ref];
  const std::size_t n = rnl.unknownCount();
  const std::size_t nodes = rnl.nodeCount();

  const PlanHandle plan = acquirePlan(rnl);
  WorkspaceLease wsl;
  BatchWorkspace& ws = *wsl;
  DeviceBlocks& db = ws.db;
  buildDeviceBlocks(nls, ref, db);

  std::array<DcLane, L>& lanes = ws.dcLanes;
  for (int l = 0; l < L; ++l) {
    DcLane& ln = lanes[l];
    ln.active = ln.done = false;
    ln.phase = 0;
    ln.iter = ln.iterations = 0;
    ln.gmin = 0.0;
    ln.srcScale = 1.0;
    ln.result = DcResult{};
  }
  for (int l = 0; l < L; ++l) {
    if (nls[l] == nullptr) continue;
    assert(sameTopology(rnl, *nls[l]));
    DcLane& ln = lanes[l];
    ln.active = true;
    if (guesses[l] != nullptr && guesses[l]->size() == nodes) {
      ln.v0 = *guesses[l];
    } else {
      ln.v0.assign(nodes, 0.0);
    }
    dcStartLoop(ln, ln.v0, opts.gmin, 1.0, *nls[l], opts);
  }

  LaneSystem& lin = ws.lin;
  lin.reset(n);
  LaneLu& lu = ws.lu;
  std::vector<double>& workRhs = ws.workRhs;
  std::vector<double>& xB = ws.xB;
  xB.assign(n * static_cast<std::size_t>(L), 0.0);

  // Which (gmin, srcScale) setting each lane's slice of the linear image
  // currently holds. A lane's image is only rebuilt when its ladder phase
  // changes that pair — in the common converge-at-phase-0 case it is stamped
  // exactly once per solve instead of once per Newton iteration.
  double stampedGmin[L];
  double stampedSrc[L];
  bool stampedValid[L] = {};
  bool stampedIdentity[L] = {};

  auto anyLive = [&lanes]() {
    for (const DcLane& ln : lanes)
      if (ln.active && !ln.done) return true;
    return false;
  };

  while (anyLive()) {
    std::array<const linalg::Vector*, L> vl{};
    bool live[L] = {};
    for (int l = 0; l < L; ++l) {
      if (lanes[l].active && !lanes[l].done) {
        live[l] = true;
        vl[l] = &lanes[l].v;
      }
    }
    {
      SimPhaseTimer timer(SimPhase::kDeviceEval);
      evalDeviceBlocks(rnl, db, vl);
    }
    {
      SimPhaseTimer timer(SimPhase::kStamp);
      for (int l = 0; l < L; ++l) {
        if (live[l]) {
          const DcLane& ln = lanes[l];
          if (!stampedValid[l] || stampedGmin[l] != ln.gmin ||
              stampedSrc[l] != ln.srcScale) {
            zeroLane(lin, l);
            stampDcLinear(lin, *nls[l], l, ln.gmin, ln.srcScale);
            stampedGmin[l] = ln.gmin;
            stampedSrc[l] = ln.srcScale;
            stampedValid[l] = true;
            stampedIdentity[l] = false;
          }
        } else if (!stampedIdentity[l]) {
          clearLaneToIdentity(lin, l);
          stampedIdentity[l] = true;
          stampedValid[l] = false;
        }
      }
      lu.load(lin);
      workRhs.assign(lin.rhs.begin(), lin.rhs.end());
      scatterNonlinear(lu.data(), workRhs.data(), *plan, db, vl, live);
    }
    {
      SimPhaseTimer timer(SimPhase::kFactor);
      lu.factorInPlace(live);
    }
    {
      SimPhaseTimer timer(SimPhase::kSolve);
      lu.solve(workRhs, xB);
    }
    for (int l = 0; l < L; ++l) {
      if (!live[l]) continue;
      DcLane& ln = lanes[l];
      const Netlist& nl = *nls[l];
      if (!lu.ok[l]) {
        ln.iterations = ln.iter;  // reference: iterations = iter on singular
        dcEndLoop(ln, false, nl, opts);
        continue;
      }
      double maxStep = 0.0;
      for (std::size_t i = 1; i < nodes; ++i) {
        const double vNew = xB[(i - 1) * L + l];
        const double dv = vNew - ln.v[i];
        maxStep = std::max(maxStep, std::abs(dv));
        ln.v[i] += std::clamp(dv, -opts.damping, opts.damping);
      }
      ln.iterations = ln.iter + 1;
      ++ln.iter;
      const double vScale = linalg::normInf(ln.v);
      if (maxStep < opts.tolAbs + opts.tolRel * vScale) {
        ln.xSave.resize(n);
        for (std::size_t j = 0; j < n; ++j) ln.xSave[j] = xB[j * L + l];
        dcEndLoop(ln, true, nl, opts);
      } else if (ln.iter >= opts.maxIterations) {
        dcEndLoop(ln, false, nl, opts);
      }
    }
  }

  for (int l = 0; l < L; ++l)
    if (lanes[l].active) out[l] = std::move(lanes[l].result);
  return out;
}

// ---------------------------------------------------------------------------
// Batched transient
// ---------------------------------------------------------------------------
namespace {

// Companion states, one set per lane, in the reference runTransient's
// collection order (explicit capacitors first, then per-MOSFET parasitics).
struct BatchCapState {
  NodeId a = kGround;
  NodeId b = kGround;
  double c = 0.0;
  double vPrev = 0.0;
  double iPrev = 0.0;
};

struct BatchIndState {
  double iPrev = 0.0;
  double vPrev = 0.0;
};

/// Lane l's step-invariant (linear) matrix part: resistors, gmin, VCCS,
/// inductor/vsource/vcvs branch rows, capacitor companion conductances. The
/// per-cell accumulation order matches the reference per-iteration stamping
/// (the nonlinear diode/MOS stamps are added on a copy each Newton round).
void stampTransientBase(LaneSystem& base, const Netlist& nl, int l,
                        const std::vector<BatchCapState>& caps, double h) {
  for (const auto& r : nl.resistors()) stampG(base, nl, l, r.a, r.b, 1.0 / r.ohms);
  for (std::size_t i = 1; i < nl.nodeCount(); ++i)
    base.at(i - 1, i - 1, l) += 1e-12;  // gmin
  for (const auto& g : nl.vccs()) {
    addAt(base, nl, l, g.p, g.cp, g.gm);
    addAt(base, nl, l, g.p, g.cn, -g.gm);
    addAt(base, nl, l, g.n, g.cp, -g.gm);
    addAt(base, nl, l, g.n, g.cn, g.gm);
  }
  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const auto& ind = nl.inductors()[k];
    const std::size_t br = nl.inductorBranchIndex(k);
    if (ind.a != kGround) {
      base.at(nl.nodeIndex(ind.a), br, l) += 1.0;
      base.at(br, nl.nodeIndex(ind.a), l) += 1.0;
    }
    if (ind.b != kGround) {
      base.at(nl.nodeIndex(ind.b), br, l) -= 1.0;
      base.at(br, nl.nodeIndex(ind.b), l) -= 1.0;
    }
    const double zeq = 2.0 * ind.henry / h;
    base.at(br, br, l) -= zeq;
  }
  for (const auto& cs : caps) {
    const double geq = 2.0 * cs.c / h;
    stampG(base, nl, l, cs.a, cs.b, geq);
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const std::size_t br = nl.vsourceBranchIndex(k);
    if (src.p != kGround) {
      base.at(nl.nodeIndex(src.p), br, l) += 1.0;
      base.at(br, nl.nodeIndex(src.p), l) += 1.0;
    }
    if (src.n != kGround) {
      base.at(nl.nodeIndex(src.n), br, l) -= 1.0;
      base.at(br, nl.nodeIndex(src.n), l) -= 1.0;
    }
  }
  for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
    const auto& e = nl.vcvs()[k];
    const std::size_t br = nl.vcvsBranchIndex(k);
    if (e.p != kGround) {
      base.at(nl.nodeIndex(e.p), br, l) += 1.0;
      base.at(br, nl.nodeIndex(e.p), l) += 1.0;
    }
    if (e.n != kGround) {
      base.at(nl.nodeIndex(e.n), br, l) -= 1.0;
      base.at(br, nl.nodeIndex(e.n), l) -= 1.0;
    }
    if (e.cp != kGround) base.at(br, nl.nodeIndex(e.cp), l) -= e.gain;
    if (e.cn != kGround) base.at(br, nl.nodeIndex(e.cn), l) += e.gain;
  }
}

}  // namespace

struct TransientBatch::Impl {
  std::array<const Netlist*, L> nls{};
  TransientOptions opts;
  int ref = -1;
  std::size_t n = 0;
  std::size_t nodes = 0;
  std::size_t nBranches = 0;
  std::size_t totalSteps = 0;
  std::size_t done = 0;
  bool active[L] = {};
  bool alive[L] = {};  ///< still recording (no singular matrix / Newton fail)
  std::array<TransientResult, L> results;
  std::array<linalg::Vector, L> v;      ///< last accepted node voltages
  std::array<linalg::Vector, L> vIter;  ///< Newton iterate scratch
  std::array<std::vector<BatchCapState>, L> caps;
  std::array<std::vector<BatchIndState>, L> inds;
  std::array<std::vector<double>, L> xSave;  ///< converged-round solution
  PlanHandle plan;  ///< cached per-topology scatter tables
  /// Pooled buffers: the base image lives in ws->lin (rhs member unused),
  /// the Newton round runs on ws->lu / ws->workRhs / ws->stepRhs / ws->xB.
  WorkspaceLease ws;

  void doStep(std::size_t stepIndex);
};

void TransientBatch::Impl::doStep(std::size_t stepIndex) {
  const Netlist& rnl = *nls[ref];
  const double h = opts.dt;
  std::vector<double>& stepRhs = ws->stepRhs;
  std::vector<double>& workRhs = ws->workRhs;
  std::vector<double>& xB = ws->xB;
  LaneLu& lu = ws->lu;

  // Per-step RHS: sources + linear companion currents. Node entries
  // accumulate as isources then capacitors — the reference per-iteration
  // order with the nonlinear (diode/MOS) contributions appended per round
  // below.
  {
    SimPhaseTimer timer(SimPhase::kStamp);
    std::fill(stepRhs.begin(), stepRhs.end(), 0.0);
    for (int l = 0; l < L; ++l) {
      if (!alive[l]) continue;
      const Netlist& nl = *nls[l];
      for (const auto& src : nl.isources())
        stampIVec(stepRhs, nl, l, src.p, src.n, src.idc);
      for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
        const auto& ind = nl.inductors()[k];
        const double zeq = 2.0 * ind.henry / h;
        stepRhs[nl.inductorBranchIndex(k) * L + static_cast<std::size_t>(l)] =
            -(inds[l][k].vPrev + zeq * inds[l][k].iPrev);
      }
      for (const auto& cs : caps[l]) {
        const double geq = 2.0 * cs.c / h;
        const double ieq = -geq * cs.vPrev - cs.iPrev;
        stampIVec(stepRhs, nl, l, cs.a, cs.b, ieq);
      }
      for (std::size_t k = 0; k < nl.vsources().size(); ++k)
        stepRhs[nl.vsourceBranchIndex(k) * L + static_cast<std::size_t>(l)] =
            nl.vsources()[k].vdc;
    }
  }

  bool iterating[L] = {};
  bool frozen[L] = {};
  for (int l = 0; l < L; ++l) {
    if (!alive[l]) continue;
    iterating[l] = true;
    vIter[l] = v[l];  // warm start from the last accepted point
  }
  auto anyIterating = [&iterating]() {
    for (int l = 0; l < L; ++l)
      if (iterating[l]) return true;
    return false;
  };

  for (int it = 0; it < opts.maxNewtonIterations && anyIterating(); ++it) {
    std::array<const linalg::Vector*, L> vl{};
    for (int l = 0; l < L; ++l)
      if (iterating[l]) vl[l] = &vIter[l];
    {
      SimPhaseTimer timer(SimPhase::kDeviceEval);
      evalDeviceBlocks(rnl, ws->db, vl);
    }
    {
      SimPhaseTimer timer(SimPhase::kStamp);
      // One copy of the precomputed base image straight into the LU panel
      // (the old flow stamped into a work system and copied again inside
      // factor), then the plan-table nonlinear scatter on top. A lane that
      // was never active needs no clear: its base slice has been identity
      // since construction and its step RHS stays zero (the clear-once rule
      // solveDcBatch applies through stampedIdentity).
      lu.load(ws->lin);
      workRhs.assign(stepRhs.begin(), stepRhs.end());
      for (int l = 0; l < L; ++l)
        if (active[l] && !iterating[l])
          clearLaneRawToIdentity(lu.data(), workRhs.data(), n, l);
      scatterNonlinear(lu.data(), workRhs.data(), *plan, ws->db, vl, iterating);
    }
    {
      SimPhaseTimer timer(SimPhase::kFactor);
      lu.factorInPlace(iterating);
    }
    SimPhaseTimer timer(SimPhase::kSolve);
    lu.solve(workRhs, xB);
    for (int l = 0; l < L; ++l) {
      if (!iterating[l]) continue;
      if (!lu.ok[l]) {
        // Reference: `if (!lu.factor(A)) return result;` — the lane stops
        // recording mid-run, completed stays false.
        alive[l] = false;
        iterating[l] = false;
        continue;
      }
      double maxStep = 0.0;
      for (std::size_t i = 1; i < nodes; ++i) {
        const double dv = xB[(i - 1) * L + l] - vIter[l][i];
        maxStep = std::max(maxStep, std::abs(dv));
        vIter[l][i] = xB[(i - 1) * L + l];
      }
      if (maxStep < opts.tolAbs) {
        frozen[l] = true;
        iterating[l] = false;
        xSave[l].resize(n);
        for (std::size_t j = 0; j < n; ++j) xSave[l][j] = xB[j * L + l];
      }
    }
  }

  for (int l = 0; l < L; ++l) {
    if (!alive[l]) continue;
    if (!frozen[l]) {
      // Newton exhausted its iteration budget: the run stops mid-way.
      alive[l] = false;
      continue;
    }
    const Netlist& nl = *nls[l];
    // Accept the step: update companion states (reference order).
    for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
      const auto& ind = nl.inductors()[k];
      const double vNow = vIter[l][static_cast<std::size_t>(ind.a)] -
                          vIter[l][static_cast<std::size_t>(ind.b)];
      inds[l][k].iPrev = xSave[l][nl.inductorBranchIndex(k)];
      inds[l][k].vPrev = vNow;
    }
    for (auto& cs : caps[l]) {
      const double vNow = vIter[l][static_cast<std::size_t>(cs.a)] -
                          vIter[l][static_cast<std::size_t>(cs.b)];
      const double geq = 2.0 * cs.c / h;
      const double iNow = geq * (vNow - cs.vPrev) - cs.iPrev;
      cs.vPrev = vNow;
      cs.iPrev = iNow;
    }
    v[l] = vIter[l];
    results[l].times.push_back(static_cast<double>(stepIndex) * h);
    results[l].voltages.push_back(v[l]);
    linalg::Vector br(nBranches, 0.0);
    for (std::size_t k = 0; k < nBranches; ++k)
      br[k] = xSave[l][nl.nodeCount() - 1 + k];
    results[l].branchCurrents.push_back(std::move(br));
  }
}

TransientBatch::TransientBatch(
    const std::array<const Netlist*, kSimLanes>& nls,
    const TransientOptions& opts,
    const std::array<const linalg::Vector*, kSimLanes>& initial)
    : impl_(new Impl) {
  Impl& im = *impl_;
  im.nls = nls;
  im.opts = opts;
  for (int l = 0; l < L; ++l)
    if (nls[l] != nullptr && im.ref < 0) im.ref = l;
  assert(im.ref >= 0 && "TransientBatch needs at least one active lane");
  const Netlist& rnl = *nls[im.ref];
  im.n = rnl.unknownCount();
  im.nodes = rnl.nodeCount();
  im.nBranches = rnl.branchCount();
  const double h = opts.dt;
  im.totalSteps = static_cast<std::size_t>(opts.tStop / h);
  im.plan = acquirePlan(rnl);
  BatchWorkspace& ws = *im.ws;
  buildDeviceBlocks(nls, im.ref, ws.db);
  ws.lin.reset(im.n);
  ws.stepRhs.assign(im.n * static_cast<std::size_t>(L), 0.0);
  ws.workRhs.assign(im.n * static_cast<std::size_t>(L), 0.0);
  ws.xB.assign(im.n * static_cast<std::size_t>(L), 0.0);
  for (int l = 0; l < L; ++l) {
    if (nls[l] == nullptr) {
      clearLaneToIdentity(ws.lin, l);
      continue;
    }
    assert(sameTopology(rnl, *nls[l]));
    assert(initial[l] != nullptr && initial[l]->size() == im.nodes);
    im.active[l] = im.alive[l] = true;
    im.v[l] = *initial[l];
    const Netlist& nl = *nls[l];
    for (const auto& c : nl.capacitors())
      im.caps[l].push_back({c.a, c.b, c.farads, 0, 0});
    if (opts.includeDeviceCaps) {
      for (const auto& fet : nl.mosfets()) {
        const double cgg = gateCapacitance(fet.params, fet.geom);
        im.caps[l].push_back({fet.g, fet.s, 0.7 * cgg, 0, 0});
        im.caps[l].push_back({fet.g, fet.d, 0.3 * cgg, 0, 0});
        im.caps[l].push_back(
            {fet.d, fet.b, drainCapacitance(fet.params, fet.geom), 0, 0});
      }
    }
    for (auto& cs : im.caps[l]) {
      cs.vPrev = im.v[l][static_cast<std::size_t>(cs.a)] -
                 im.v[l][static_cast<std::size_t>(cs.b)];
      cs.iPrev = 0.0;
    }
    im.inds[l].resize(nl.inductors().size());
    for (std::size_t k = 0; k < im.inds[l].size(); ++k) {
      const auto& ind = nl.inductors()[k];
      im.inds[l][k].vPrev = im.v[l][static_cast<std::size_t>(ind.a)] -
                            im.v[l][static_cast<std::size_t>(ind.b)];
    }
    TransientResult& res = im.results[l];
    res.times.reserve(im.totalSteps + 1);
    res.voltages.reserve(im.totalSteps + 1);
    res.branchCurrents.reserve(im.totalSteps + 1);
    res.times.push_back(0.0);
    res.voltages.push_back(im.v[l]);
    res.branchCurrents.emplace_back(im.nBranches, 0.0);
    stampTransientBase(ws.lin, nl, l, im.caps[l], h);
  }
}

TransientBatch::~TransientBatch() = default;

std::size_t TransientBatch::totalSteps() const { return impl_->totalSteps; }

std::size_t TransientBatch::stepsDone() const { return impl_->done; }

void TransientBatch::step(std::size_t n) {
  Impl& im = *impl_;
  while (n > 0 && im.done < im.totalSteps) {
    ++im.done;
    --n;
    bool any = false;
    for (int l = 0; l < L; ++l) any = any || im.alive[l];
    if (any) im.doStep(im.done);
  }
  if (im.done == im.totalSteps) {
    for (int l = 0; l < L; ++l)
      if (im.alive[l]) im.results[l].completed = true;
  }
}

void TransientBatch::run() { step(impl_->totalSteps); }

const TransientResult& TransientBatch::result(int lane) const {
  assert(lane >= 0 && lane < L && impl_->active[lane]);
  return impl_->results[lane];
}

TransientResult TransientBatch::takeResult(int lane) {
  assert(lane >= 0 && lane < L && impl_->active[lane]);
  return std::move(impl_->results[lane]);
}

// ---------------------------------------------------------------------------
// Batched AC: lane-blocked complex LU over split re/im planes.
//
// Per lane this performs the exact op sequence of LuSolver<complex<double>>:
// the schoolbook multiply (ar*br - ai*bi, ar*bi + ai*br) written out below is
// the same linalg::cxMul expression the scalar complex LU spells out (see
// cxmath.hpp for why neither path may use std::complex operator*), and the
// reciprocal-multiply division goes through the shared cxReciprocal. Any
// non-finite excursion is still detected by the per-lane sticky finiteness
// flag, and flagged lanes are redone through the scalar AcSolver by the
// caller.
// ---------------------------------------------------------------------------
struct AcBatch::Impl {
  std::array<std::unique_ptr<AcSolver>, L> solvers;
  bool active[L] = {};
  bool finite[L] = {true, true, true, true};
  bool solveOk[L] = {};  ///< per-solveAt nonsingular flag
  int ref = -1;
  std::size_t n = 0;
  // Lane- and plane-interleaved storage: matrix cell (r, c) occupies one
  // 64-byte group of 8 doubles at (r*n + c)*2L, the first four lanes being
  // the real (G) plane and the next four the imaginary (C) plane. gc holds
  // the frequency-independent G/C stamp images, built once; every solveAt
  // assembles G + jwC into lu as a single linear V4d pass, and the complex
  // elimination/solve kernels touch exactly one cache line per cell.
  std::vector<double> gc, lu;      // (r*n + c)*2L + plane*L + l
  std::vector<double> x;           // i*2L + plane*L + l (one cell per unknown)
  std::vector<std::size_t> perm;   // i*L + l
};

AcBatch::AcBatch(const std::array<const Netlist*, kSimLanes>& nls,
                 const std::array<const DcResult*, kSimLanes>& ops)
    : impl_(new Impl) {
  Impl& im = *impl_;
  for (int l = 0; l < L; ++l) {
    if (nls[l] == nullptr || ops[l] == nullptr) continue;
    if (im.ref < 0) {
      im.ref = l;
    } else {
      assert(sameTopology(*nls[im.ref], *nls[l]));
    }
    im.active[l] = true;
    im.solvers[l] = std::make_unique<AcSolver>(*nls[l], *ops[l]);
  }
  assert(im.ref >= 0 && "AcBatch needs at least one active lane");
  im.n = im.solvers[im.ref]->gStamps().rows();
  const std::size_t groups =
      im.n * im.n * static_cast<std::size_t>(2 * L);
  im.gc.assign(groups, 0.0);
  im.lu.assign(groups, 0.0);
  im.x.assign(im.n * static_cast<std::size_t>(2 * L), 0.0);
  im.perm.assign(im.n * L, 0);
  for (int l = 0; l < L; ++l) {
    if (!im.active[l]) {
      // Inactive lanes hold a fixed identity (C plane zero) so the shared
      // factorization stays benign at any frequency.
      for (std::size_t i = 0; i < im.n; ++i)
        im.gc[(i * im.n + i) * 2 * L + l] = 1.0;
      continue;
    }
    const linalg::Matrix& g = im.solvers[l]->gStamps();
    const linalg::Matrix& c = im.solvers[l]->cStamps();
    for (std::size_t r = 0; r < im.n; ++r) {
      for (std::size_t cc = 0; cc < im.n; ++cc) {
        im.gc[(r * im.n + cc) * 2 * L + l] = g(r, cc);
        im.gc[(r * im.n + cc) * 2 * L + L + l] = c(r, cc);
      }
    }
  }
}

AcBatch::~AcBatch() = default;

void AcBatch::solveAt(double freqHz) {
  Impl& im = *impl_;
  const std::size_t n = im.n;
  const double w = 2.0 * std::numbers::pi * freqHz;
  constexpr std::size_t S = 2 * static_cast<std::size_t>(L);  // doubles/cell

  double* __restrict lup = im.lu.data();
  const double* __restrict gc = im.gc.data();
  // Stamped cell (r,c) is {g, w*c} (scalar assembly of A = G + jwC); w * 0.0
  // keeps inactive lanes' identity imaginary-free, and the real plane's
  // 1.0-multiply is an exact bitwise identity for every non-NaN double (NaN
  // lanes replay through the scalar solver, so payload quieting is
  // unobservable). The k = 0 elimination step below computes stamped values
  // on the fly straight from the G/C image — each cell's w-multiply happens
  // exactly once either way, so fusing only removes a full matrix write +
  // re-read, never a rounding step.
  const V8d w8 = simd::concat8(simd::splat4(1.0), simd::splat4(w));
  const V4d wv = simd::splat4(w);

  {
    SimPhaseTimer timer(SimPhase::kFactor);
    for (std::size_t i = 0; i < n; ++i)
      for (int l = 0; l < L; ++l) im.perm[i * L + l] = i;
    for (int l = 0; l < L; ++l) im.solveOk[l] = im.active[l];

    // Fused stamp + k = 0 step: pivot-search column 0 against on-the-fly
    // stamped magnitudes, and when every lane agrees on the pivot row (the
    // overwhelmingly common case for same-topology corner batches) perform
    // the first elimination step reading stamped values directly from gc,
    // writing the already-updated matrix into lu. Lanes that disagree fall
    // back to a whole-image stamp followed by the generic per-lane step.
    std::size_t kStart = 0;
    V4d bests = simd::abs4(simd::load4(gc)) +
                simd::abs4(wv * simd::load4(gc + L));
    V4i pivots = simd::splatI4(0);
    for (std::size_t r = 1; r < n; ++r) {
      const V4d m = simd::abs4(simd::load4(gc + (r * n) * S)) +
                    simd::abs4(wv * simd::load4(gc + (r * n) * S + L));
      const V4i better = m > bests;
      bests = simd::select4(better, m, bests);
      pivots = simd::selectI4(
          better, simd::splatI4(static_cast<std::int64_t>(r)), pivots);
    }
    const std::int64_t fp0 = pivots[0];
    if (pivots[1] == fp0 && pivots[2] == fp0 && pivots[3] == fp0) {
      for (int l = 0; l < L; ++l)
        if (im.solveOk[l] && bests[l] < 1e-300) im.solveOk[l] = false;
      const std::size_t p = static_cast<std::size_t>(fp0);
      if (p != 0)
        for (int l = 0; l < L; ++l) std::swap(im.perm[l], im.perm[p * L + l]);
      // Row 0 of the factor is the stamped source row p, verbatim.
      for (std::size_t c = 0; c < n; ++c)
        simd::store8(lup + c * S, simd::load8(gc + (p * n + c) * S) * w8);
      const V4d dre = simd::load4(lup);
      const V4d dim = simd::load4(lup + L);
      const V4d den = dre * dre + dim * dim;
      const V4d rcp = simd::splat4(1.0) / den;
      const V4d invRe = dre * rcp;
      const V4d invIm = -dim * rcp;
      for (std::size_t r = 1; r < n; ++r) {
        // Row r's source is row r, except the row displaced by the swap.
        const double* __restrict g = gc + ((r == p ? 0 : r) * n) * S;
        double* __restrict rowR = lup + (r * n) * S;
        const V4d ar = simd::load4(g);
        const V4d ai = wv * simd::load4(g + L);
        const V4d fRe = ar * invRe - ai * invIm;
        const V4d fIm = ar * invIm + ai * invRe;
        simd::store4(rowR, fRe);
        simd::store4(rowR + L, fIm);
        for (std::size_t c = 1; c < n; ++c) {
          const V4d sr = simd::load4(g + c * S);
          const V4d si = wv * simd::load4(g + c * S + L);
          const V4d kr = simd::load4(lup + c * S);
          const V4d ki = simd::load4(lup + c * S + L);
          simd::store4(rowR + c * S, sr - (fRe * kr - fIm * ki));
          simd::store4(rowR + c * S + L, si - (fRe * ki + fIm * kr));
        }
      }
      kStart = 1;
    } else {
      // Divergent pivots at k = 0: materialize the whole stamped image and
      // let the generic step redo the search against identical values.
      for (std::size_t i = 0; i < n * n; ++i)
        simd::store8(lup + i * S, simd::load8(gc + i * S) * w8);
    }

    for (std::size_t k = kStart; k < n; ++k) {
      // Pivot search: one 4-lane cabs1 (|re| + |im|, elementwise-exact) per
      // candidate row, with a strict-greater first-wins mask blend. Per lane
      // this performs the same comparisons in the same r order as the scalar
      // LuSolver, so the pivot choice (and every rounding after it) is
      // identical; dead lanes' magnitudes are computed but never consumed.
      V4d bests = simd::abs4(simd::load4(lup + (k * n + k) * S)) +
                  simd::abs4(simd::load4(lup + (k * n + k) * S + L));
      V4i pivots = simd::splatI4(static_cast<std::int64_t>(k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const V4d m = simd::abs4(simd::load4(lup + (r * n + k) * S)) +
                      simd::abs4(simd::load4(lup + (r * n + k) * S + L));
        const V4i better = m > bests;
        bests = simd::select4(better, m, bests);
        pivots = simd::selectI4(
            better, simd::splatI4(static_cast<std::int64_t>(r)), pivots);
      }
      for (int l = 0; l < L; ++l)
        if (im.solveOk[l] && bests[l] < 1e-300)
          im.solveOk[l] = false;  // scalar solveSystem: nullopt -> zeros
      const std::int64_t p0 = pivots[0];
      if (pivots[1] == p0 && pivots[2] == p0 && pivots[3] == p0) {
        // Same-topology corner batches almost always agree on the pivot row:
        // swap whole cells instead of per-lane scalar strides. Pure data
        // movement, so the lane arithmetic is untouched; dead lanes ride
        // along unobservably (their solution is zeroed after the solve, and
        // the scalar path never reads their rows again).
        const std::size_t pivot = static_cast<std::size_t>(p0);
        if (pivot != k) {
          for (int l = 0; l < L; ++l)
            std::swap(im.perm[k * L + l], im.perm[pivot * L + l]);
          for (std::size_t c = 0; c < n; ++c) {
            const V8d a = simd::load8(lup + (k * n + c) * S);
            const V8d b = simd::load8(lup + (pivot * n + c) * S);
            simd::store8(lup + (k * n + c) * S, b);
            simd::store8(lup + (pivot * n + c) * S, a);
          }
        }
      } else {
        for (int l = 0; l < L; ++l) {
          if (!im.solveOk[l]) continue;
          const std::size_t pivot = static_cast<std::size_t>(pivots[l]);
          if (pivot != k) {
            std::swap(im.perm[k * L + l], im.perm[pivot * L + l]);
            for (std::size_t c = 0; c < n; ++c) {
              std::swap(lup[(k * n + c) * S + l], lup[(pivot * n + c) * S + l]);
              std::swap(lup[(k * n + c) * S + L + l],
                        lup[(pivot * n + c) * S + L + l]);
            }
          }
        }
      }
      // cxReciprocal of the diagonal, vectorized: the identical expression
      // sequence (d = re*re + im*im; id = 1/d; {re*id, -im*id}) per lane.
      const V4d dre = simd::load4(lup + (k * n + k) * S);
      const V4d dim = simd::load4(lup + (k * n + k) * S + L);
      const V4d den = dre * dre + dim * dim;
      const V4d rcp = simd::splat4(1.0) / den;
      const V4d invRe = dre * rcp;
      const V4d invIm = -dim * rcp;
      const double* __restrict rowK = lup + (k * n) * S;
      // Two-row blocking: rows r and r+1 share one load of the pivot row's
      // (kr, ki) per column. Each row still executes exactly its scalar
      // expression sequence — blocking only interleaves two independent
      // rows' updates, so the bitwise contract is untouched.
      std::size_t r = k + 1;
      for (; r + 1 < n; r += 2) {
        // Rows r, r+1 and k are pairwise disjoint slices, so restrict holds.
        double* __restrict rowR = lup + (r * n) * S;
        double* __restrict rowQ = lup + ((r + 1) * n) * S;
        const V4d ar0 = simd::load4(rowR + k * S);
        const V4d ai0 = simd::load4(rowR + k * S + L);
        const V4d ar1 = simd::load4(rowQ + k * S);
        const V4d ai1 = simd::load4(rowQ + k * S + L);
        const V4d fRe0 = ar0 * invRe - ai0 * invIm;
        const V4d fIm0 = ar0 * invIm + ai0 * invRe;
        const V4d fRe1 = ar1 * invRe - ai1 * invIm;
        const V4d fIm1 = ar1 * invIm + ai1 * invRe;
        simd::store4(rowR + k * S, fRe0);
        simd::store4(rowR + k * S + L, fIm0);
        simd::store4(rowQ + k * S, fRe1);
        simd::store4(rowQ + k * S + L, fIm1);
        for (std::size_t c = k + 1; c < n; ++c) {
          const V4d kr = simd::load4(rowK + c * S);
          const V4d ki = simd::load4(rowK + c * S + L);
          simd::store4(rowR + c * S,
                       simd::load4(rowR + c * S) - (fRe0 * kr - fIm0 * ki));
          simd::store4(rowR + c * S + L,
                       simd::load4(rowR + c * S + L) - (fRe0 * ki + fIm0 * kr));
          simd::store4(rowQ + c * S,
                       simd::load4(rowQ + c * S) - (fRe1 * kr - fIm1 * ki));
          simd::store4(rowQ + c * S + L,
                       simd::load4(rowQ + c * S + L) - (fRe1 * ki + fIm1 * kr));
        }
      }
      for (; r < n; ++r) {
        // Rows r and k are disjoint slices (r > k), so restrict holds.
        double* __restrict rowR = lup + (r * n) * S;
        const V4d ar = simd::load4(rowR + k * S);
        const V4d ai = simd::load4(rowR + k * S + L);
        const V4d fRe = ar * invRe - ai * invIm;
        const V4d fIm = ar * invIm + ai * invRe;
        simd::store4(rowR + k * S, fRe);
        simd::store4(rowR + k * S + L, fIm);
        for (std::size_t c = k + 1; c < n; ++c) {
          const V4d kr = simd::load4(rowK + c * S);
          const V4d ki = simd::load4(rowK + c * S + L);
          simd::store4(rowR + c * S,
                       simd::load4(rowR + c * S) - (fRe * kr - fIm * ki));
          simd::store4(rowR + c * S + L,
                       simd::load4(rowR + c * S + L) - (fRe * ki + fIm * kr));
        }
      }
    }
  }

  // Solve (per lane: LuSolver<complex>::solveInto with b = bReal + j0). The
  // solution vector shares the matrix's cell layout, so the triangular
  // accumulations run on whole cells: per term, t1/t2 hold the four scalar
  // products and the half-swaps only repackage lanes before the exact
  // scalar-order sub/add (re: mr*xr - mi*xi, im: mr*xi + mi*xr).
  SimPhaseTimer timer(SimPhase::kSolve);
  const double* bLane[L] = {};
  for (int l = 0; l < L; ++l)
    if (im.active[l]) bLane[l] = im.solvers[l]->acExcitation().data();
  double* __restrict x = im.x.data();
  for (std::size_t i = 0; i < n; ++i) {
    double init[L];
    for (int l = 0; l < L; ++l)
      init[l] = bLane[l] != nullptr ? bLane[l][im.perm[i * L + l]] : 0.0;
    V4d accRe = simd::load4(init);
    V4d accIm = simd::splat4(0.0);
    for (std::size_t j = 0; j < i; ++j) {
      const V4d mr = simd::load4(lup + (i * n + j) * S);
      const V4d mi = simd::load4(lup + (i * n + j) * S + L);
      const V4d xr = simd::load4(x + j * S);
      const V4d xi = simd::load4(x + j * S + L);
      accRe = accRe - (mr * xr - mi * xi);
      accIm = accIm - (mr * xi + mi * xr);
    }
    simd::store4(x + i * S, accRe);
    simd::store4(x + i * S + L, accIm);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    V4d accRe = simd::load4(x + ii * S);
    V4d accIm = simd::load4(x + ii * S + L);
    for (std::size_t j = ii + 1; j < n; ++j) {
      const V4d mr = simd::load4(lup + (ii * n + j) * S);
      const V4d mi = simd::load4(lup + (ii * n + j) * S + L);
      const V4d xr = simd::load4(x + j * S);
      const V4d xi = simd::load4(x + j * S + L);
      accRe = accRe - (mr * xr - mi * xi);
      accIm = accIm - (mr * xi + mi * xr);
    }
    const V4d dre = simd::load4(lup + (ii * n + ii) * S);
    const V4d dim = simd::load4(lup + (ii * n + ii) * S + L);
    const V4d den = dre * dre + dim * dim;
    const V4d rcp = simd::splat4(1.0) / den;
    const V4d invRe = dre * rcp;
    const V4d invIm = -dim * rcp;
    simd::store4(x + ii * S, accRe * invRe - accIm * invIm);
    simd::store4(x + ii * S + L, accRe * invIm + accIm * invRe);
  }

  // Singular lanes yield the scalar's zero solution; surviving lanes feed the
  // sticky finiteness check that gates the std::complex NaN-recovery redo.
  for (int l = 0; l < L; ++l) {
    if (!im.active[l]) continue;
    if (!im.solveOk[l]) {
      for (std::size_t i = 0; i < n; ++i) {
        im.x[i * S + l] = 0.0;
        im.x[i * S + L + l] = 0.0;
      }
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(im.x[i * S + l]) || !std::isfinite(im.x[i * S + L + l])) {
        im.finite[l] = false;
        break;
      }
    }
  }
}

std::complex<double> AcBatch::nodeVoltage(int lane, NodeId n) const {
  const Impl& im = *impl_;
  assert(lane >= 0 && lane < L && im.active[lane]);
  if (n == kGround) return {0.0, 0.0};
  const std::size_t i = im.solvers[lane]->netlist().nodeIndex(n);
  const std::size_t cell = i * static_cast<std::size_t>(2 * L);
  return {im.x[cell + lane], im.x[cell + L + lane]};
}

bool AcBatch::laneFinite(int lane) const {
  assert(lane >= 0 && lane < L);
  return impl_->finite[lane];
}

const AcSolver* AcBatch::laneSolver(int lane) const {
  assert(lane >= 0 && lane < L);
  return impl_->solvers[lane].get();
}

}  // namespace trdse::sim
