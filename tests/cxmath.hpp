// Complex helpers of the reference scalar LU (tests/lu.hpp). The lane-blocked
// complex LU in sim/op_batch.cpp spells the same expressions out on split
// re/im planes.
#pragma once

#include <cmath>
#include <complex>

namespace trdse::linalg {

/// Naive complex reciprocal: conj(z) / |z|^2, no Smith scaling. The plain
/// formula is a handful of mul/add ops that vectorize across lanes and — the
/// property the batched AC path depends on — is the *same* op sequence
/// whether computed on a std::complex or on split re/im planes. The tradeoff
/// is intermediate overflow/underflow of |z|^2 outside |z| in roughly
/// (1e-154, 1e154), far beyond any magnitude an MNA factorization with
/// partial pivoting produces. Both LuSolver<std::complex<double>> and the
/// lane-blocked complex LU in sim/op_batch.cpp divide by multiplying with
/// this reciprocal expression, keeping their per-lane arithmetic bitwise
/// identical.
inline std::complex<double> cxReciprocal(const std::complex<double>& z) {
  const double d = z.real() * z.real() + z.imag() * z.imag();
  const double id = 1.0 / d;
  return {z.real() * id, -z.imag() * id};
}

/// Naive complex multiply written as explicit real arithmetic. std::complex
/// operator* must NOT be used in the bitwise-locked LU paths: GCC lowers it
/// to fused multiply-addsub instructions on FMA targets even under
/// -ffp-contract=off (the complex lowering pass pre-dates contraction
/// control), which rounds differently from the split re/im planes of the
/// lane-blocked solver. Spelling out the four products keeps every rounding
/// under the TU's contraction setting, identical on both paths. (This also
/// drops libgcc's __muldc3 NaN-recovery fallback — acceptable, as both paths
/// then agree even on non-finite operands.)
inline std::complex<double> cxMul(const std::complex<double>& a,
                                  const std::complex<double>& b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// Pivot-selection magnitude: |re| + |im| (LAPACK's cabs1). Partial pivoting
/// only needs a magnitude *ordering*, not the Euclidean modulus, and the
/// 1-norm avoids a libm hypot call per candidate row — the pivot search is
/// the serial, non-vectorizable fraction of both the scalar and the
/// lane-blocked complex LU, so it sets the ceiling on the batch speedup.
/// Scalar LuSolver<std::complex<double>> and sim/op_batch.cpp must use this
/// same magnitude so their pivot choices (and therefore every subsequent
/// rounding) stay bitwise identical.
inline double cxPivotMag(const std::complex<double>& z) {
  return std::abs(z.real()) + std::abs(z.imag());
}

}  // namespace trdse::linalg
