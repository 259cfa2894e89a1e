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
#include "sim/assembly_plan.hpp"
#include "sim/diode.hpp"

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

/// All-ones lanes where on[l], all-zero elsewhere: a select4 mask.
V4i laneMask(const bool* on) {
  return V4i{on[0] ? -1 : 0, on[1] ? -1 : 0, on[2] ? -1 : 0, on[3] ? -1 : 0};
}

// Per-lane stamp helpers mirroring the reference solvers' stampG/stampI/addAt
// (same ground skips, same += order). stampG and addAt take any lane image
// with at(r, c, l): a LaneSystem, or one plane of AcBatch's G/C image.
template <typename Sys>
void stampG(Sys& sys, const Netlist& nl, int l, NodeId a, NodeId b, double g) {
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

template <typename Sys>
void addAt(Sys& sys, const Netlist& nl, int l, NodeId r, NodeId cNode,
           double c) {
  if (r == kGround || cNode == kGround) return;
  sys.at(nl.nodeIndex(r), nl.nodeIndex(cNode), l) += c;
}

/// Voltage-controlled current source gm * (v(cp) - v(cn)) from p to n.
template <typename Sys>
void stampVccs(Sys& sys, const Netlist& nl, int l, const Vccs& g) {
  addAt(sys, nl, l, g.p, g.cp, g.gm);
  addAt(sys, nl, l, g.p, g.cn, -g.gm);
  addAt(sys, nl, l, g.n, g.cp, -g.gm);
  addAt(sys, nl, l, g.n, g.cn, g.gm);
}

/// Incidence of branch unknown `br` (a voltage source, VCVS or inductor)
/// between nodes p and n: the branch current enters p's KCL row and the
/// branch equation reads v(p) - v(n).
template <typename Sys>
void stampBranch(Sys& sys, const Netlist& nl, int l, NodeId p, NodeId n,
                 std::size_t br) {
  if (p != kGround) {
    sys.at(nl.nodeIndex(p), br, l) += 1.0;
    sys.at(br, nl.nodeIndex(p), l) += 1.0;
  }
  if (n != kGround) {
    sys.at(nl.nodeIndex(n), br, l) -= 1.0;
    sys.at(br, nl.nodeIndex(n), l) -= 1.0;
  }
}

// ---------------------------------------------------------------------------
// Lane-blocked real LU. Pivot choice and row swaps are per lane (identical to
// the reference scalar LU's partial pivoting, decided on the lane's own
// values); the elimination arithmetic runs vectorized across the lane
// dimension, which per lane is the exact op sequence scalar factor() performs.
// ---------------------------------------------------------------------------
struct LaneLu {
  std::size_t n = 0;
  std::vector<double> lu;           // (r*n + c)*L + l
  std::vector<std::size_t> perm;    // i*L + l
  bool ok[L] = {};                  // per-lane "factored and nonsingular"

  /// Copy the linear image `sys` into the panel and `rhsIn` into `rhsOut`,
  /// with every lane outside `on` blended to the identity system (diag 1,
  /// rhs 0): lanes that are frozen, dead or unused still go through the
  /// shared LU, where the identity keeps factoring finite and solves to
  /// zeros (which are discarded). The per-round nonlinear stamps then
  /// scatter straight into data() and factorInPlace() runs on it — one
  /// matrix pass per Newton round.
  void load(const LaneSystem& sys, const std::vector<double>& rhsIn, V4i on,
            std::vector<double>& rhsOut) {
    n = sys.n;
    lu.resize(sys.a.size());
    rhsOut.resize(rhsIn.size());
    const V4d zero = simd::splat4(0.0);
    const V4d one = simd::splat4(1.0);
    const double* __restrict src = sys.a.data();
    double* __restrict dst = lu.data();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) {
        const std::size_t at = (r * n + c) * L;
        simd::store4(dst + at, simd::select4(on, simd::load4(src + at),
                                             r == c ? one : zero));
      }
    for (std::size_t i = 0; i < n; ++i)
      simd::store4(rhsOut.data() + i * L,
                   simd::select4(on, simd::load4(rhsIn.data() + i * L), zero));
  }

  /// Size the panel and permutation for a `dim`-unknown system up front.
  void reset(std::size_t dim) {
    n = dim;
    lu.assign(n * n * L, 0.0);
    perm.assign(n * L, 0);
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

  /// Per lane this is exactly the scalar LU's solveInto. `bB` must not
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

// The Newton iterate of every engine round lives in one node x lane layout,
// node i of lane l at v[i*L + l] (ground row included), the layout of the LU
// panel's right-hand side. The device gathers below are therefore one V4d
// load per terminal, masked by the lanes the round iterates: a masked-off
// lane reads exactly 0.0, since a dead lane's last iterate may hold
// non-finite values that the kernels and the stamp blend must never see.

/// Node `node`'s four lanes of `v`, with the lanes outside `on` read as 0.0.
V4d gatherNode(const double* v, NodeId node, V4i on) {
  return simd::select4(
      on, simd::load4(v + static_cast<std::size_t>(node) * L),
      simd::splat4(0.0));
}

/// One lockstep round of device-card evaluation at the iterate `v` of the
/// lanes in `on` (the others evaluate at all-zero terminals; their outputs
/// are discarded).
void evalDeviceBlocks(const AssemblyPlan& plan, DeviceBlocks& db,
                      const double* v, V4i on) {
  for (std::size_t k = 0; k < plan.mosIdx.size(); ++k) {
    const MosStampIdx& ix = plan.mosIdx[k];
    alignas(32) double vd[L], vg[L], vs[L], vb[L];
    simd::store4(vd, gatherNode(v, ix.d, on));
    simd::store4(vg, gatherNode(v, ix.g, on));
    simd::store4(vs, gatherNode(v, ix.s, on));
    simd::store4(vb, gatherNode(v, ix.b, on));
    evalMosBlock(db.mosCtx[k], vd, vg, vs, vb, db.mosOp[k]);
  }
  for (std::size_t k = 0; k < plan.dioIdx.size(); ++k) {
    const DiodeStampIdx& ix = plan.dioIdx[k];
    alignas(32) double vak[L];
    simd::store4(vak, gatherNode(v, ix.a, on) - gatherNode(v, ix.k, on));
    evalDiodeBlock(db.dioCtx[k], vak, db.dioOp[k]);
  }
}

/// cell += x, four lanes at once.
void addCell(double* cell, V4d x) {
  simd::store4(cell, simd::load4(cell) + x);
}

void subCell(double* cell, V4d x) {
  simd::store4(cell, simd::load4(cell) - x);
}

/// Nonlinear (diode/MOS) Newton stamps through the precompiled plan tables,
/// one V4d per matrix cell. Per lane this accumulates exactly the scalar
/// per-iteration sequence (diodes in netlist order, then MOSFETs, same addAt
/// order per device). Lanes outside `on` blend in an addend of exactly 0.0,
/// leaving their cells bit-unchanged; their op-block values are finite
/// (evalDeviceBlocks feeds them 0.0 inputs) and their voltage gathers read
/// 0.0, so no NaN enters the blend. Shared by the DC and transient engines —
/// both stamp the same linearized device companions onto their respective
/// linear images.
void scatterNonlinear(double* __restrict wa, double* __restrict wr,
                      const AssemblyPlan& plan, const DeviceBlocks& db,
                      const double* v, V4i on) {
  const V4d zero = simd::splat4(0.0);
  for (std::size_t k = 0; k < plan.dioIdx.size(); ++k) {
    const DiodeStampIdx& ix = plan.dioIdx[k];
    const DiodeOpBlock& op = db.dioOp[k];
    const V4d vak = gatherNode(v, ix.a, on) - gatherNode(v, ix.k, on);
    const V4d gd = simd::select4(on, simd::load4(op.gd), zero);
    const V4d id = simd::select4(on, simd::load4(op.id), zero);
    const V4d ieq = id - gd * vak;
    if (ix.cell[0] >= 0) addCell(wa + ix.cell[0] * L, gd);
    if (ix.cell[1] >= 0) subCell(wa + ix.cell[1] * L, gd);
    if (ix.cell[2] >= 0) addCell(wa + ix.cell[2] * L, gd);
    if (ix.cell[3] >= 0) subCell(wa + ix.cell[3] * L, gd);
    if (ix.rhsA >= 0) subCell(wr + ix.rhsA * L, ieq);
    if (ix.rhsK >= 0) addCell(wr + ix.rhsK * L, ieq);
  }
  for (std::size_t k = 0; k < plan.mosIdx.size(); ++k) {
    const MosStampIdx& ix = plan.mosIdx[k];
    const MosOpBlock& op = db.mosOp[k];
    const V4d mv[4] = {simd::select4(on, simd::load4(op.dIdVd), zero),
                       simd::select4(on, simd::load4(op.dIdVg), zero),
                       simd::select4(on, simd::load4(op.dIdVs), zero),
                       simd::select4(on, simd::load4(op.dIdVb), zero)};
    const V4d ids = simd::select4(on, simd::load4(op.ids), zero);
    const V4d ieq = ids - mv[0] * gatherNode(v, ix.d, on) -
                    mv[1] * gatherNode(v, ix.g, on) -
                    mv[2] * gatherNode(v, ix.s, on) -
                    mv[3] * gatherNode(v, ix.b, on);
    for (int e = 0; e < 4; ++e)
      if (ix.cell[e] >= 0) addCell(wa + ix.cell[e] * L, mv[e]);
    for (int e = 0; e < 4; ++e)
      if (ix.cell[4 + e] >= 0) subCell(wa + ix.cell[4 + e] * L, mv[e]);
    if (ix.rhsD >= 0) subCell(wr + ix.rhsD * L, ieq);
    if (ix.rhsS >= 0) addCell(wr + ix.rhsS * L, ieq);
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
  for (const auto& g : nl.vccs()) stampVccs(sys, nl, l, g);
  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const auto& ind = nl.inductors()[k];
    const std::size_t br = nl.inductorBranchIndex(k);
    stampBranch(sys, nl, l, ind.a, ind.b, br);
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const std::size_t br = nl.vsourceBranchIndex(k);
    stampBranch(sys, nl, l, src.p, src.n, br);
    sys.rv(br, l) = src.vdc * srcScale;
  }
  for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
    const auto& e = nl.vcvs()[k];
    const std::size_t br = nl.vcvsBranchIndex(k);
    stampBranch(sys, nl, l, e.p, e.n, br);
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
// allocations); pool threads run thousands of solves over the same
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
  std::vector<double> v;      ///< node x lane Newton iterate (i*L + l)
  std::vector<double> xSave;  ///< transient: converged-round solution (i*L + l)
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
  std::vector<double>& vB = ws.v;
  vB.assign(nodes * static_cast<std::size_t>(L), 0.0);

  // Which (gmin, srcScale) setting each lane's slice of the linear image
  // currently holds. A lane's image is only rebuilt when its ladder phase
  // changes that pair — in the common converge-at-phase-0 case it is stamped
  // exactly once per solve instead of once per Newton iteration. Lanes that
  // are not live are blended to identity as the image is loaded.
  double stampedGmin[L];
  double stampedSrc[L];
  bool stampedValid[L] = {};

  auto anyLive = [&lanes]() {
    for (const DcLane& ln : lanes)
      if (ln.active && !ln.done) return true;
    return false;
  };

  while (anyLive()) {
    // Gather the live lanes' iterates into the node x lane layout the device
    // gathers and the nonlinear scatter read.
    bool live[L] = {};
    for (int l = 0; l < L; ++l) {
      if (!lanes[l].active || lanes[l].done) continue;
      live[l] = true;
      const linalg::Vector& v = lanes[l].v;
      for (std::size_t i = 0; i < nodes; ++i)
        vB[i * L + static_cast<std::size_t>(l)] = v[i];
    }
    const V4i on = laneMask(live);
    evalDeviceBlocks(*plan, db, vB.data(), on);
    for (int l = 0; l < L; ++l) {
      if (!live[l]) continue;
      const DcLane& ln = lanes[l];
      if (!stampedValid[l] || stampedGmin[l] != ln.gmin ||
          stampedSrc[l] != ln.srcScale) {
        zeroLane(lin, l);
        stampDcLinear(lin, *nls[l], l, ln.gmin, ln.srcScale);
        stampedGmin[l] = ln.gmin;
        stampedSrc[l] = ln.srcScale;
        stampedValid[l] = true;
      }
    }
    lu.load(lin, lin.rhs, on, workRhs);
    scatterNonlinear(lu.data(), workRhs.data(), *plan, db, vB.data(), on);
    lu.factorInPlace(live);
    lu.solve(workRhs, xB);
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

// Companion elements as lane blocks: the lanes share topology, so terminals
// and branch rows are shared and only the values are per lane. Capacitors
// keep the reference runTransient's collection order (explicit capacitors
// first, then each MOSFET's gate-source, gate-drain and drain-bulk
// parasitics).
struct CapBlock {
  alignas(32) double geq[L] = {};  ///< trapezoidal conductance 2C/h
  alignas(32) double vPrev[L] = {};  ///< v(a) - v(b) at the last accepted step
  alignas(32) double iPrev[L] = {};  ///< companion current at that step
  NodeId a = kGround;
  NodeId b = kGround;
};

struct IndBlock {
  alignas(32) double zeq[L] = {};  ///< trapezoidal impedance 2L/h
  alignas(32) double vPrev[L] = {};  ///< v(a) - v(b) at the last accepted step
  alignas(32) double iPrev[L] = {};  ///< branch current at that step
  NodeId a = kGround;
  NodeId b = kGround;
  std::size_t br = 0;  ///< MNA branch row
};

/// Lane l's step-invariant image: the matrix's linear part (resistors, gmin,
/// VCCS, inductor/vsource/vcvs branch rows, capacitor companion
/// conductances) and the sources' RHS (isources on node rows, vsource
/// rows). The per-cell accumulation order matches the reference
/// per-iteration stamping; each step adds the companion currents to a copy
/// of the RHS, and each Newton round the nonlinear diode/MOS stamps to a
/// copy of both.
void stampTransientBase(LaneSystem& base, const Netlist& nl, int l,
                        const std::vector<CapBlock>& caps,
                        const std::vector<IndBlock>& inds) {
  for (const auto& r : nl.resistors()) stampG(base, nl, l, r.a, r.b, 1.0 / r.ohms);
  for (std::size_t i = 1; i < nl.nodeCount(); ++i)
    base.at(i - 1, i - 1, l) += 1e-12;  // gmin
  for (const auto& src : nl.isources()) stampI(base, nl, l, src.p, src.n, src.idc);
  for (const auto& g : nl.vccs()) stampVccs(base, nl, l, g);
  for (const IndBlock& ind : inds) {
    stampBranch(base, nl, l, ind.a, ind.b, ind.br);
    base.at(ind.br, ind.br, l) -= ind.zeq[l];
  }
  for (const CapBlock& cs : caps) stampG(base, nl, l, cs.a, cs.b, cs.geq[l]);
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const std::size_t br = nl.vsourceBranchIndex(k);
    stampBranch(base, nl, l, src.p, src.n, br);
    base.rv(br, l) = src.vdc;
  }
  for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
    const auto& e = nl.vcvs()[k];
    const std::size_t br = nl.vcvsBranchIndex(k);
    stampBranch(base, nl, l, e.p, e.n, br);
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
  std::vector<CapBlock> caps;
  std::vector<IndBlock> inds;
  PlanHandle plan;  ///< cached per-topology scatter tables
  /// Pooled buffers, all in the node x lane layout: the step-invariant image
  /// in ws->lin, the Newton iterate in ws->v (which holds each lane's last
  /// accepted voltages between steps), its converged solution in ws->xSave,
  /// and the round's panel and vectors in ws->lu / stepRhs / workRhs / xB.
  WorkspaceLease ws;

  void doStep(std::size_t stepIndex);
};

void TransientBatch::Impl::doStep(std::size_t stepIndex) {
  const Netlist& rnl = *nls[ref];
  BatchWorkspace& w = *ws;
  LaneLu& lu = w.lu;
  double* v = w.v.data();
  double* xSave = w.xSave.data();
  const double* x = w.xB.data();

  // Per-step RHS: the sources' image, the inductor rows, then the capacitor
  // companion currents — per lane the reference's order (isources, inductor
  // rows, capacitors, vsource rows), with the nonlinear (diode/MOS)
  // contributions appended each round below. Every lane is computed; the
  // lanes a round does not iterate are blended to a zero RHS as it loads.
  double* rhs = w.stepRhs.data();
  std::copy(w.lin.rhs.begin(), w.lin.rhs.end(), rhs);
  for (const IndBlock& ind : inds)
    simd::store4(rhs + ind.br * L,
                 -(simd::load4(ind.vPrev) +
                   simd::load4(ind.zeq) * simd::load4(ind.iPrev)));
  for (const CapBlock& cs : caps) {
    const V4d ieq = -simd::load4(cs.geq) * simd::load4(cs.vPrev) -
                    simd::load4(cs.iPrev);
    if (cs.a != kGround) subCell(rhs + rnl.nodeIndex(cs.a) * L, ieq);
    if (cs.b != kGround) addCell(rhs + rnl.nodeIndex(cs.b) * L, ieq);
  }

  // Each alive lane warm-starts from its last accepted point, which ws->v
  // already holds.
  bool iterating[L] = {};
  bool accepted[L] = {};
  for (int l = 0; l < L; ++l) iterating[l] = alive[l];
  auto anyIterating = [&iterating]() {
    for (int l = 0; l < L; ++l)
      if (iterating[l]) return true;
    return false;
  };

  for (int it = 0; it < opts.maxNewtonIterations && anyIterating(); ++it) {
    const V4i on = laneMask(iterating);
    evalDeviceBlocks(*plan, w.db, v, on);
    lu.load(w.lin, w.stepRhs, on, w.workRhs);
    scatterNonlinear(lu.data(), w.workRhs.data(), *plan, w.db, v, on);
    lu.factorInPlace(iterating);
    lu.solve(w.workRhs, w.xB);
    // Newton update of the lanes whose factorization held, and the largest
    // node step of each lane: std::max(maxStep, |dv|) per lane, its NaN rule
    // included ((m < a) ? a : m).
    const V4i update = on & laneMask(lu.ok);
    V4d maxStep = simd::splat4(0.0);
    for (std::size_t i = 1; i < nodes; ++i) {
      const V4d vNew = simd::load4(x + (i - 1) * L);
      const V4d vOld = simd::load4(v + i * L);
      const V4d dv = simd::abs4(vNew - vOld);
      maxStep = simd::select4(maxStep < dv, dv, maxStep);
      simd::store4(v + i * L, simd::select4(update, vNew, vOld));
    }
    bool converged[L] = {};
    bool anyConverged = false;
    for (int l = 0; l < L; ++l) {
      if (!iterating[l]) continue;
      if (!lu.ok[l]) {
        // Reference: `if (!lu.factor(A)) return result;` — the lane stops
        // recording mid-run, completed stays false.
        alive[l] = false;
        iterating[l] = false;
      } else if (maxStep[l] < opts.tolAbs) {
        converged[l] = accepted[l] = true;
        iterating[l] = false;
        anyConverged = true;
      }
    }
    if (anyConverged) {
      const V4i keep = laneMask(converged);
      for (std::size_t j = 0; j < n; ++j)
        simd::store4(xSave + j * L,
                     simd::select4(keep, simd::load4(x + j * L),
                                   simd::load4(xSave + j * L)));
    }
  }

  bool anyAccepted = false;
  for (int l = 0; l < L; ++l) {
    // Newton exhausted its iteration budget: the run stops mid-way.
    if (!accepted[l]) alive[l] = false;
    anyAccepted = anyAccepted || accepted[l];
  }
  if (!anyAccepted) return;

  // Accept the step on the converged lanes: companion states in the
  // reference order, then the trace rows, appended in place.
  const V4i acc = laneMask(accepted);
  for (IndBlock& ind : inds) {
    const V4d vNow = simd::load4(v + static_cast<std::size_t>(ind.a) * L) -
                     simd::load4(v + static_cast<std::size_t>(ind.b) * L);
    simd::store4(ind.iPrev, simd::select4(acc, simd::load4(xSave + ind.br * L),
                                          simd::load4(ind.iPrev)));
    simd::store4(ind.vPrev, simd::select4(acc, vNow, simd::load4(ind.vPrev)));
  }
  for (CapBlock& cs : caps) {
    const V4d vNow = simd::load4(v + static_cast<std::size_t>(cs.a) * L) -
                     simd::load4(v + static_cast<std::size_t>(cs.b) * L);
    const V4d vPrev = simd::load4(cs.vPrev);
    const V4d iPrev = simd::load4(cs.iPrev);
    const V4d iNow = simd::load4(cs.geq) * (vNow - vPrev) - iPrev;
    simd::store4(cs.vPrev, simd::select4(acc, vNow, vPrev));
    simd::store4(cs.iPrev, simd::select4(acc, iNow, iPrev));
  }
  const double t = static_cast<double>(stepIndex) * opts.dt;
  for (int l = 0; l < L; ++l) {
    if (!accepted[l]) continue;
    const auto li = static_cast<std::size_t>(l);
    TransientResult& res = results[li];
    res.times.push_back(t);
    for (std::size_t i = 0; i < nodes; ++i) res.voltages.push_back(v[i * L + li]);
    for (std::size_t k = 0; k < nBranches; ++k)
      res.branchCurrents.push_back(xSave[(nodes - 1 + k) * L + li]);
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
  // Size every per-step buffer here, so that stepping allocates nothing.
  const std::size_t nL = im.n * static_cast<std::size_t>(L);
  ws.lin.reset(im.n);
  ws.lu.reset(im.n);
  ws.stepRhs.assign(nL, 0.0);
  ws.workRhs.assign(nL, 0.0);
  ws.xB.assign(nL, 0.0);
  ws.xSave.assign(nL, 0.0);
  ws.v.assign(im.nodes * static_cast<std::size_t>(L), 0.0);

  // Companion blocks, in the reference's collection order. The lanes share
  // topology, so every lane writes the same terminals and its own values.
  im.caps.resize(rnl.capacitors().size() +
                 (opts.includeDeviceCaps ? 3 * rnl.mosfets().size() : 0));
  im.inds.resize(rnl.inductors().size());
  for (int l = 0; l < L; ++l) {
    if (nls[l] == nullptr) continue;
    assert(sameTopology(rnl, *nls[l]));
    assert(initial[l] != nullptr && initial[l]->size() == im.nodes);
    im.active[l] = im.alive[l] = true;
    const Netlist& nl = *nls[l];
    const linalg::Vector& v0 = *initial[l];
    const auto li = static_cast<std::size_t>(l);
    for (std::size_t i = 0; i < im.nodes; ++i) ws.v[i * L + li] = v0[i];
    std::size_t next = 0;
    auto addCap = [&](NodeId a, NodeId b, double farads) {
      CapBlock& cs = im.caps[next++];
      cs.a = a;
      cs.b = b;
      cs.geq[li] = 2.0 * farads / h;
      cs.vPrev[li] =
          v0[static_cast<std::size_t>(a)] - v0[static_cast<std::size_t>(b)];
    };
    for (const auto& c : nl.capacitors()) addCap(c.a, c.b, c.farads);
    if (opts.includeDeviceCaps) {
      for (const auto& fet : nl.mosfets()) {
        const double cgg = gateCapacitance(fet.params, fet.geom);
        addCap(fet.g, fet.s, 0.7 * cgg);
        addCap(fet.g, fet.d, 0.3 * cgg);
        addCap(fet.d, fet.b, drainCapacitance(fet.params, fet.geom));
      }
    }
    for (std::size_t k = 0; k < im.inds.size(); ++k) {
      const auto& src = nl.inductors()[k];
      IndBlock& ind = im.inds[k];
      ind.a = src.a;
      ind.b = src.b;
      ind.br = nl.inductorBranchIndex(k);
      ind.zeq[li] = 2.0 * src.henry / h;
      ind.vPrev[li] = v0[static_cast<std::size_t>(src.a)] -
                      v0[static_cast<std::size_t>(src.b)];
    }
    stampTransientBase(ws.lin, nl, l, im.caps, im.inds);

    TransientResult& res = im.results[li];
    res.nodeCount = im.nodes;
    res.branchCount = im.nBranches;
    res.times.reserve(im.totalSteps + 1);
    res.voltages.reserve((im.totalSteps + 1) * im.nodes);
    res.branchCurrents.reserve((im.totalSteps + 1) * im.nBranches);
    res.times.push_back(0.0);
    res.voltages.assign(v0.begin(), v0.end());
    res.branchCurrents.assign(im.nBranches, 0.0);
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
// Small-signal AC: per-lane stamps, then a lane-blocked complex LU over split
// re/im planes.
//
// Per lane this performs the exact op sequence of the reference's scalar
// complex LU (tests/lu.hpp): every complex product is the schoolbook
// (ar*br - ai*bi, ar*bi + ai*br) written out below, and division multiplies
// by the naive reciprocal conj(z)/|z|^2. The reference spells the same real
// arithmetic out by hand because GCC lowers std::complex operator* to fused
// multiply-addsub instructions even under -ffp-contract=off. Neither side
// takes libgcc's NaN-recovery path, so a lane that goes non-finite keeps the
// reference's values too: the same entries turn NaN or infinite, and every
// other bit matches (a NaN's sign is left to the compiler, which may move a
// negation across a product).
// ---------------------------------------------------------------------------
struct AcBatch::Impl {
  std::array<const Netlist*, L> nls{};  ///< null for inactive lanes
  bool solveOk[L] = {};  ///< per-solveAt nonsingular flag
  std::size_t n = 0;
  // Lane- and plane-interleaved storage: matrix cell (r, c) occupies one
  // 64-byte group of 8 doubles at (r*n + c)*2L, the first four lanes being
  // the real (G) plane and the next four the imaginary (C) plane. gc holds
  // the frequency-independent G/C stamp images, built once; every solveAt
  // assembles G + jwC into lu as a single linear V4d pass, and the complex
  // elimination/solve kernels touch exactly one cache line per cell.
  std::vector<double> gc, lu;      // (r*n + c)*2L + plane*L + l
  std::vector<double> b;           // i*L + l: stamped AC excitation
  std::vector<double> x;           // i*2L + plane*L + l (one cell per unknown)
  std::vector<std::size_t> perm;   // i*L + l
};

namespace {

/// One plane (G or C) of AcBatch's stamp image, addressed like a LaneSystem.
struct AcPlane {
  double* base;  ///< gc.data() + plane * L
  std::size_t n;
  double& at(std::size_t r, std::size_t c, int l) const {
    return base[(r * n + c) * 2 * L + static_cast<std::size_t>(l)];
  }
};

/// Stamp lane l's small-signal system: G (conductance and source topology),
/// C (capacitance; multiplied by jw per point) and the AC excitation b
/// (i*L + l). The reference (tests/sim_reference.hpp) stamps the same terms
/// in the same order.
void stampAcLane(const Netlist& nl, const DcResult& op, AcPlane g, AcPlane c,
                 double* b, int l) {
  auto bAt = [&](std::size_t i) -> double& {
    return b[i * L + static_cast<std::size_t>(l)];
  };
  for (const auto& r : nl.resistors()) stampG(g, nl, l, r.a, r.b, 1.0 / r.ohms);
  for (const auto& cap : nl.capacitors())
    stampG(c, nl, l, cap.a, cap.b, cap.farads);

  for (const auto& v : nl.vccs()) stampVccs(g, nl, l, v);

  // Diodes: small-signal conductance from the operating point.
  assert(op.diodeConductances.size() == nl.diodes().size());
  for (std::size_t k = 0; k < nl.diodes().size(); ++k) {
    const auto& d = nl.diodes()[k];
    stampG(g, nl, l, d.a, d.k, op.diodeConductances[k]);
  }

  // Inductors: branch equation v_p - v_n - jwL * i = 0. The jwL term lands
  // in the capacitance-like plane (multiplied by jw per point) with a
  // negative L on the branch diagonal.
  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const auto& ind = nl.inductors()[k];
    const std::size_t br = nl.inductorBranchIndex(k);
    stampBranch(g, nl, l, ind.a, ind.b, br);
    c.at(br, br, l) -= ind.henry;
  }

  // Linearized MOSFET: four-terminal VCCS from the DC Jacobian + parasitics.
  assert(op.mosOps.size() == nl.mosfets().size());
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& fet = nl.mosfets()[k];
    const MosOp& o = op.mosOps[k];
    addAt(g, nl, l, fet.d, fet.d, o.dIdVd);
    addAt(g, nl, l, fet.d, fet.g, o.dIdVg);
    addAt(g, nl, l, fet.d, fet.s, o.dIdVs);
    addAt(g, nl, l, fet.d, fet.b, o.dIdVb);
    addAt(g, nl, l, fet.s, fet.d, -o.dIdVd);
    addAt(g, nl, l, fet.s, fet.g, -o.dIdVg);
    addAt(g, nl, l, fet.s, fet.s, -o.dIdVs);
    addAt(g, nl, l, fet.s, fet.b, -o.dIdVb);

    const double cgg = gateCapacitance(fet.params, fet.geom);
    stampG(c, nl, l, fet.g, fet.s, 0.7 * cgg);
    stampG(c, nl, l, fet.g, fet.d, 0.3 * cgg);  // Miller path
    stampG(c, nl, l, fet.d, fet.b, drainCapacitance(fet.params, fet.geom));
  }

  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const std::size_t br = nl.vsourceBranchIndex(k);
    stampBranch(g, nl, l, src.p, src.n, br);
    bAt(br) = src.vac;
  }

  for (std::size_t k = 0; k < nl.vcvs().size(); ++k) {
    const auto& e = nl.vcvs()[k];
    const std::size_t br = nl.vcvsBranchIndex(k);
    stampBranch(g, nl, l, e.p, e.n, br);
    if (e.cp != kGround) g.at(br, nl.nodeIndex(e.cp), l) -= e.gain;
    if (e.cn != kGround) g.at(br, nl.nodeIndex(e.cn), l) += e.gain;
  }

  for (const auto& src : nl.isources()) {
    if (src.iac == 0.0) continue;
    if (src.p != kGround) bAt(nl.nodeIndex(src.p)) -= src.iac;
    if (src.n != kGround) bAt(nl.nodeIndex(src.n)) += src.iac;
  }
}

}  // namespace

AcBatch::AcBatch(const std::array<const Netlist*, kSimLanes>& nls,
                 const std::array<const DcResult*, kSimLanes>& ops)
    : impl_(new Impl) {
  Impl& im = *impl_;
  int ref = -1;
  for (int l = 0; l < L; ++l) {
    if (nls[l] == nullptr || ops[l] == nullptr) continue;
    assert(ops[l]->converged &&
           "AC analysis requires a converged operating point");
    if (ref < 0) {
      ref = l;
    } else {
      assert(sameTopology(*nls[ref], *nls[l]));
    }
    im.nls[l] = nls[l];
  }
  assert(ref >= 0 && "AcBatch needs at least one active lane");
  im.n = nls[ref]->unknownCount();
  const std::size_t groups =
      im.n * im.n * static_cast<std::size_t>(2 * L);
  im.gc.assign(groups, 0.0);
  im.lu.assign(groups, 0.0);
  im.b.assign(im.n * L, 0.0);
  im.x.assign(im.n * static_cast<std::size_t>(2 * L), 0.0);
  im.perm.assign(im.n * L, 0);
  for (int l = 0; l < L; ++l) {
    if (im.nls[l] == nullptr) {
      // Inactive lanes hold a fixed identity (C plane zero) so the shared
      // factorization stays benign at any frequency.
      for (std::size_t i = 0; i < im.n; ++i)
        im.gc[(i * im.n + i) * 2 * L + l] = 1.0;
      continue;
    }
    stampAcLane(*im.nls[l], *ops[l], AcPlane{im.gc.data(), im.n},
                AcPlane{im.gc.data() + L, im.n}, im.b.data(), l);
  }
}

AcBatch::~AcBatch() = default;

void AcBatch::solveAt(double freqHz,
                      const std::array<const linalg::Vector*, kSimLanes>& rhs) {
  Impl& im = *impl_;
  const std::size_t n = im.n;
  const double w = 2.0 * std::numbers::pi * freqHz;
  constexpr std::size_t S = 2 * static_cast<std::size_t>(L);  // doubles/cell

  double* __restrict lup = im.lu.data();
  const double* __restrict gc = im.gc.data();
  // Stamped cell (r,c) is {g, w*c} (scalar assembly of A = G + jwC); w * 0.0
  // keeps inactive lanes' identity imaginary-free, and the real plane's
  // 1.0-multiply returns every stamped value unchanged: each cell is a sum
  // formed from 0.0, so it is never a signalling NaN, and a quiet NaN keeps
  // its payload. The k = 0 elimination step below computes stamped values
  // on the fly straight from the G/C image — each cell's w-multiply happens
  // exactly once either way, so fusing only removes a full matrix write +
  // re-read, never a rounding step.
  const V8d w8 = simd::concat8(simd::splat4(1.0), simd::splat4(w));
  const V4d wv = simd::splat4(w);

  for (std::size_t i = 0; i < n; ++i)
    for (int l = 0; l < L; ++l) im.perm[i * L + l] = i;
  for (int l = 0; l < L; ++l) im.solveOk[l] = im.nls[l] != nullptr;

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
    // LU, so the pivot choice (and every rounding after it) is identical;
    // dead lanes' magnitudes are computed but never consumed.
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
        im.solveOk[l] = false;  // singular: the lane's solution is zeros
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
    // Naive reciprocal of the diagonal, vectorized: the reference's
    // expression sequence (d = re*re + im*im; id = 1/d; {re*id, -im*id}).
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

  // Solve (per lane: the scalar LU's solveInto with b = rhs + j0, where rhs
  // is the caller's or else the stamped excitation). The solution vector
  // shares the matrix's cell layout, so the triangular accumulations run on
  // whole cells in the scalar order (re: mr*xr - mi*xi, im: mr*xi + mi*xr).
  double* __restrict x = im.x.data();
  for (std::size_t i = 0; i < n; ++i) {
    double init[L];
    for (int l = 0; l < L; ++l) {
      const std::size_t src = im.perm[i * L + l];
      init[l] = rhs[l] != nullptr ? (*rhs[l])[src] : im.b[src * L + l];
    }
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

  // Singular lanes yield the reference's zero solution.
  for (int l = 0; l < L; ++l) {
    if (im.nls[l] == nullptr || im.solveOk[l]) continue;
    for (std::size_t i = 0; i < n; ++i) {
      im.x[i * S + l] = 0.0;
      im.x[i * S + L + l] = 0.0;
    }
  }
}

std::complex<double> AcBatch::nodeVoltage(int lane, NodeId n) const {
  const Impl& im = *impl_;
  assert(lane >= 0 && lane < L && im.nls[lane] != nullptr);
  if (n == kGround) return {0.0, 0.0};
  const std::size_t i = im.nls[lane]->nodeIndex(n);
  const std::size_t cell = i * static_cast<std::size_t>(2 * L);
  return {im.x[cell + lane], im.x[cell + L + lane]};
}

linalg::ComplexVector AcBatch::solution(int lane) const {
  const Impl& im = *impl_;
  assert(lane >= 0 && lane < L && im.nls[lane] != nullptr);
  linalg::ComplexVector x(im.n);
  for (std::size_t i = 0; i < im.n; ++i) {
    const std::size_t cell = i * static_cast<std::size_t>(2 * L);
    x[i] = {im.x[cell + lane], im.x[cell + L + lane]};
  }
  return x;
}

}  // namespace trdse::sim
