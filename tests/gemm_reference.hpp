// Reference GEMM kernels: the 2-row × 8-column register tiles the library's
// linalg::matMulInto / matMulTransBBiasInto / gemmAtBAccum replaced, kept as
// the oracle those kernels are compared against bit for bit
// (tests/batch_test.cpp, Gemm.BitwiseMatchesReference).
//
// Per element of C they fix the floating-point sequence the library must
// keep: the accumulator starts at +0 (or at C for A^T·B), products are added
// one at a time in ascending k (or row) order, a bias is added once after the
// sum, and A^T·B skips every (row, coefficient) pair whose coefficient is
// zero. Compiled into a test TU with the library's own flags, every path here
// contracts `acc += a * b` exactly as the library's tiles do (into an FMA
// where the ISA has one, nowhere on a build without FMA).
#pragma once

#include <cassert>
#include <cstddef>

#include "linalg/matrix.hpp"

namespace trdse::linalg::reference {

inline constexpr std::size_t kGemmRowTile = 2;

namespace detail {

/// Shared micro-kernel body: C = A·B (+ optional row-broadcast bias when
/// `bias` is non-null, added once after the full k-sum — the same order as
/// matVec followed by a bias add).
template <typename T, std::size_t kJT>
inline void gemmTileColumns(const MatrixT<T>& a, const MatrixT<T>& b,
                            MatrixT<T>& c, const T* bias, std::size_t i0,
                            std::size_t& j0, std::size_t jEnd) {
  constexpr std::size_t kIT = kGemmRowTile;
  const std::size_t depth = a.cols();
  for (; j0 + kJT <= jEnd; j0 += kJT) {
    T acc[kIT][kJT] = {};
    for (std::size_t k = 0; k < depth; ++k) {
      const T* TRDSE_RESTRICT br = b.row(k) + j0;
      for (std::size_t ii = 0; ii < kIT; ++ii) {
        const T aik = a(i0 + ii, k);
        for (std::size_t jj = 0; jj < kJT; ++jj) acc[ii][jj] += aik * br[jj];
      }
    }
    for (std::size_t ii = 0; ii < kIT; ++ii) {
      T* TRDSE_RESTRICT cr = c.row(i0 + ii) + j0;
      if (bias != nullptr) {
        for (std::size_t jj = 0; jj < kJT; ++jj)
          cr[jj] = acc[ii][jj] + bias[j0 + jj];
      } else {
        for (std::size_t jj = 0; jj < kJT; ++jj) cr[jj] = acc[ii][jj];
      }
    }
  }
}

/// One kIT × kJT register tile of C += A^T · B at (i0, j0): loaded once,
/// accumulated over every row of A and B, stored once.
template <typename T, std::size_t kIT, std::size_t kJT>
inline void gemmAtBTile(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c,
                        std::size_t i0, std::size_t j0) {
  T acc[kIT][kJT];
  for (std::size_t ii = 0; ii < kIT; ++ii) {
    const T* TRDSE_RESTRICT cr = c.row(i0 + ii) + j0;
    for (std::size_t jj = 0; jj < kJT; ++jj) acc[ii][jj] = cr[jj];
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const T* TRDSE_RESTRICT ar = a.row(r) + i0;
    const T* TRDSE_RESTRICT br = b.row(r) + j0;
    for (std::size_t ii = 0; ii < kIT; ++ii) {
      const T coeff = ar[ii];
      if (coeff == T{}) continue;
      for (std::size_t jj = 0; jj < kJT; ++jj) acc[ii][jj] += coeff * br[jj];
    }
  }
  for (std::size_t ii = 0; ii < kIT; ++ii) {
    T* TRDSE_RESTRICT cr = c.row(i0 + ii) + j0;
    for (std::size_t jj = 0; jj < kJT; ++jj) cr[jj] = acc[ii][jj];
  }
}

/// Rows [i0, i0 + kIT) of C += A^T · B: column tiles of 8, then 4, then 1.
template <typename T, std::size_t kIT>
inline void gemmAtBRows(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c,
                        std::size_t i0) {
  const std::size_t n = b.cols();
  std::size_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) gemmAtBTile<T, kIT, 8>(a, b, c, i0, j0);
  for (; j0 + 4 <= n; j0 += 4) gemmAtBTile<T, kIT, 4>(a, b, c, i0, j0);
  for (; j0 < n; ++j0) gemmAtBTile<T, kIT, 1>(a, b, c, i0, j0);
}

}  // namespace detail

/// C = A·B with optional fused row-broadcast bias. The 2-row register tile
/// walks column tiles of 8, then 4, then scalar remainder.
template <typename T>
void matMulBiasInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c,
                    const T* bias) {
  assert(a.cols() == b.rows());
  assert(&c != &a && &c != &b);
  const std::size_t m = a.rows();
  const std::size_t depth = a.cols();
  const std::size_t n = b.cols();
  c.resize(m, n);
  constexpr std::size_t kIT = kGemmRowTile;
  std::size_t i0 = 0;
  for (; i0 + kIT <= m; i0 += kIT) {
    std::size_t j0 = 0;
    detail::gemmTileColumns<T, 8>(a, b, c, bias, i0, j0, n);
    detail::gemmTileColumns<T, 4>(a, b, c, bias, i0, j0, n);
    for (; j0 < n; ++j0) {
      for (std::size_t ii = 0; ii < kIT; ++ii) {
        const T* TRDSE_RESTRICT ar = a.row(i0 + ii);
        T s{};
        for (std::size_t k = 0; k < depth; ++k) s += ar[k] * b(k, j0);
        c(i0 + ii, j0) = bias != nullptr ? s + bias[j0] : s;
      }
    }
  }
  for (; i0 < m; ++i0) {
    const T* TRDSE_RESTRICT ar = a.row(i0);
    for (std::size_t j = 0; j < n; ++j) {
      T s{};
      for (std::size_t k = 0; k < depth; ++k) s += ar[k] * b(k, j);
      c(i0, j) = bias != nullptr ? s + bias[j] : s;
    }
  }
}

/// C += A^T * B, register-tiled over C: per element, products are added one
/// at a time in ascending row order, and a zero A(r, i) skips row r for
/// row i of C.
template <typename T>
void gemmAtBAccum(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c) {
  assert(a.rows() == b.rows());
  assert(c.rows() == a.cols() && c.cols() == b.cols());
  std::size_t i0 = 0;
  for (; i0 + 2 <= a.cols(); i0 += 2) detail::gemmAtBRows<T, 2>(a, b, c, i0);
  for (; i0 < a.cols(); ++i0) detail::gemmAtBRows<T, 1>(a, b, c, i0);
}

}  // namespace trdse::linalg::reference
