#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "core/simd.hpp"

namespace trdse::linalg {

namespace {

// ---- GEMM register tiles ----
//
// A tile is R rows of C by NV vectors of type V (a GNU vector, or plain
// double for the scalar columns). Its R·NV accumulators live in registers
// across the whole shared dimension, so the unroll pragmas are what make it
// a register tile: without them the arrays stay in memory and every product
// round-trips through the stack.
//
// The native vector comes from the ISA the build targets, not from a
// setting: one zmm (8 doubles) when it has AVX-512, else 4 doubles (one ymm
// on AVX2, two SSE halves on bare x86-64). A 4-row × 3-vector tile then
// holds 12 accumulators, 3 B vectors and a broadcast — all 16 of AVX2's ymm
// registers, where 8-wide vectors would spill.
//
// Each element's sequence is fixed whatever the tile: start at +0 (or at C),
// add the products one at a time in ascending k, add the bias once after the
// sum. Vector arithmetic is elementwise, so a lane of a vector tile computes
// exactly what a scalar column does, and where the ISA has FMA the compiler
// contracts `acc += a * b` into one in every tile alike.

#if defined(__AVX512F__)
using NativeVec = simd::V8d;
#else
using NativeVec = simd::V4d;
#endif

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

constexpr std::size_t kW = kLanes<NativeVec>;

/// Calls tile<NV, V>(j) for every column tile of a row block of C with n
/// columns: native vectors three at a time, then two or one, then a 4-wide
/// tile (when the native vector is wider), then scalar columns.
template <typename Tile>
inline void forEachColumnTile(std::size_t n, Tile&& tile) {
  std::size_t j = 0;
  for (; j + 3 * kW <= n; j += 3 * kW) tile.template operator()<3, NativeVec>(j);
  if (j + 2 * kW <= n) {
    tile.template operator()<2, NativeVec>(j);
    j += 2 * kW;
  } else if (j + kW <= n) {
    tile.template operator()<1, NativeVec>(j);
    j += kW;
  }
  if constexpr (kW > 4) {
    if (j + 4 <= n) {
      tile.template operator()<1, simd::V4d>(j);
      j += 4;
    }
  }
  for (; j < n; ++j) tile.template operator()<1, double>(j);
}

/// Calls rows<R>(i) for every row block of C with m rows: blocks of 4, then
/// one of 2, then one of 1.
template <typename Rows>
inline void forEachRowBlock(std::size_t m, Rows&& rows) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) rows.template operator()<4>(i);
  if (i + 2 <= m) {
    rows.template operator()<2>(i);
    i += 2;
  }
  if (i < m) rows.template operator()<1>(i);
}

/// Rows [i0, i0 + R) by columns [j0, j0 + NV·lanes) of C = A·B (+ bias).
template <std::size_t R, std::size_t NV, typename V>
inline void mulTile(const Matrix& a, const Matrix& b, const double* bias,
                    Matrix& c, std::size_t i0, std::size_t j0) {
  constexpr std::size_t L = kLanes<V>;
  const std::size_t depth = a.cols();
  const double* a0 = a.row(i0);
  const std::size_t lda = a.cols();
  V acc[R][NV];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v) acc[r][v] = V{};
  for (std::size_t k = 0; k < depth; ++k) {
    const double* br = b.row(k) + j0;
    V bv[NV];
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v) bv[v] = simd::load<V>(br + v * L);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const V ar = simd::splat<V>(a0[r * lda + k]);
#pragma GCC unroll 3
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += ar * bv[v];
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    double* cr = c.row(i0 + r) + j0;
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v) {
      V out = acc[r][v];
      if (bias != nullptr) out += simd::load<V>(bias + j0 + v * L);
      simd::store(cr + v * L, out);
    }
  }
}

/// Rows [i0, i0 + R) by columns [j0, j0 + NV·lanes) of C += A^T·B.
template <std::size_t R, std::size_t NV, typename V>
inline void atbTile(const Matrix& a, const Matrix& b, Matrix& c,
                    std::size_t i0, std::size_t j0) {
  constexpr std::size_t L = kLanes<V>;
  V acc[R][NV];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v)
      acc[r][v] = simd::load<V>(c.row(i0 + r) + j0 + v * L);
  for (std::size_t s = 0; s < a.rows(); ++s) {
    const double* as = a.row(s) + i0;
    const double* bs = b.row(s) + j0;
    V bv[NV];
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v) bv[v] = simd::load<V>(bs + v * L);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      if (as[r] == 0.0) continue;
      const V coeff = simd::splat<V>(as[r]);
#pragma GCC unroll 3
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += coeff * bv[v];
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v)
      simd::store(c.row(i0 + r) + j0 + v * L, acc[r][v]);
}

/// C = A·B, plus `bias` on every row when it is non-null.
void matMulBiasInto(const Matrix& a, const Matrix& b, const double* bias,
                    Matrix& c) {
  assert(a.cols() == b.rows());
  assert(&c != &a && &c != &b);
  c.resize(a.rows(), b.cols());
  forEachRowBlock(a.rows(), [&]<std::size_t R>(std::size_t i0) {
    forEachColumnTile(b.cols(), [&]<std::size_t NV, typename V>(std::size_t j0) {
      mulTile<R, NV, V>(a, b, bias, c, i0, j0);
    });
  });
}

}  // namespace

void matMulInto(const Matrix& a, const Matrix& b, Matrix& c) {
  matMulBiasInto(a, b, nullptr, c);
}

Matrix matMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matMulInto(a, b, c);
  return c;
}

void matMulTransBInto(const Matrix& a, const Matrix& b, Matrix& c,
                      Matrix& packBuf) {
  assert(a.cols() == b.cols());
  transposeInto(b, packBuf);
  matMulInto(a, packBuf, c);
}

Matrix matMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c;
  Matrix pack;
  matMulTransBInto(a, b, c, pack);
  return c;
}

void matMulTransBBiasInto(const Matrix& a, const Matrix& b, const Vector& bias,
                          Matrix& c, Matrix& packBuf) {
  assert(a.cols() == b.cols());
  assert(bias.size() == b.rows());
  transposeInto(b, packBuf);
  matMulBiasInto(a, packBuf, bias.data(), c);
}

void gemmAtBAccum(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.rows() == b.rows());
  assert(c.rows() == a.cols() && c.cols() == b.cols());
  forEachRowBlock(a.cols(), [&]<std::size_t R>(std::size_t i0) {
    forEachColumnTile(b.cols(), [&]<std::size_t NV, typename V>(std::size_t j0) {
      atbTile<R, NV, V>(a, b, c, i0, j0);
    });
  });
}

// ---- Small vector helpers ----

double dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

double normInf(const Vector& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

void axpy(double alpha, const Vector& x, Vector& y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vector scaled(const Vector& x, double alpha) {
  Vector y = x;
  for (double& v : y) v *= alpha;
  return y;
}

Vector add(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector y = a;
  for (std::size_t i = 0; i < b.size(); ++i) y[i] += b[i];
  return y;
}

Vector sub(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector y = a;
  for (std::size_t i = 0; i < b.size(); ++i) y[i] -= b[i];
  return y;
}

}  // namespace trdse::linalg
