// Dense row-major matrix over an arbitrary scalar (double or complex<double>).
//
// This is the numerical workhorse shared by the MNA circuit solver (real DC
// Jacobians, complex AC system matrices) and the neural-network library
// (weight matrices, batched activations). It is deliberately small: only the
// operations those clients need, with bounds checking in debug builds.
#pragma once

#include <algorithm>
#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <new>
#include <vector>

// The GEMM micro-kernels promise the compiler non-overlapping panels so the
// unit-stride inner loops vectorize without runtime alias checks.
#if defined(_MSC_VER)
#define TRDSE_RESTRICT __restrict
#else
#define TRDSE_RESTRICT __restrict__
#endif

namespace trdse::linalg {

/// Minimal 64-byte-aligned allocator so matrix rows start on cache-line
/// boundaries and the GEMM micro-kernels get aligned vector loads.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

template <typename T>
class MatrixT {
 public:
  MatrixT() = default;
  MatrixT(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested braces: MatrixT<double>{{1,2},{3,4}}.
  MatrixT(std::initializer_list<std::initializer_list<T>> rows_init) {
    rows_ = rows_init.size();
    cols_ = rows_ == 0 ? 0 : rows_init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows_init) {
      assert(r.size() == cols_ && "ragged initializer");
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T* row(std::size_t r) { return data_.data() + r * cols_; }
  const T* row(std::size_t r) const { return data_.data() + r * cols_; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }
  void resize(std::size_t rows, std::size_t cols, T fill = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  MatrixT& operator+=(const MatrixT& o) {
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }
  MatrixT& operator-=(const MatrixT& o) {
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }
  MatrixT& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  friend bool operator==(const MatrixT&, const MatrixT&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector<T> data_;
};

using Matrix = MatrixT<double>;
using ComplexMatrix = MatrixT<std::complex<double>>;
using Vector = std::vector<double>;
using ComplexVector = std::vector<std::complex<double>>;

/// y = A * x (dimensions must agree).
template <typename T>
std::vector<T> matVec(const MatrixT<T>& a, const std::vector<T>& x) {
  assert(a.cols() == x.size());
  std::vector<T> y(a.rows(), T{});
  for (std::size_t r = 0; r < a.rows(); ++r) {
    T acc{};
    const T* ar = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) acc += ar[c] * x[c];
    y[r] = acc;
  }
  return y;
}

/// y = A^T * x.
template <typename T>
std::vector<T> matTVec(const MatrixT<T>& a, const std::vector<T>& x) {
  assert(a.rows() == x.size());
  std::vector<T> y(a.cols(), T{});
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const T* ar = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += ar[c] * x[r];
  }
  return y;
}

// ---- Batched GEMM kernels ----
//
// The hot path of the trust-region planner scores ~800 candidates per step on
// the NN surrogate; these kernels let every layer run as one matrix-matrix
// product instead of 800 matrix-vector products. The loops are cache-blocked
// (row/depth tiles sized so the B-panel stays resident in L1/L2) with an
// i-k-j micro-kernel whose inner j loop is unit-stride in both B and C, so
// the compiler vectorizes it. Accumulation over k is ascending, one product
// at a time — the exact association order of matVec — which keeps batched
// inference bitwise identical to the per-sample path.

/// C = A * B with C resized by the callee. Buffers keep their capacity across
/// calls, so steady-state invocations do not allocate.
///
/// Micro-kernel: a 2 × 8 register tile of C is accumulated across the whole
/// shared dimension before being stored once, so the inner loop runs from
/// registers (two independent 8-wide FMA chains per tile) instead of
/// read-modify-writing C rows through the cache. Per element, products are
/// still added in ascending-k order one at a time — the association order of
/// matVec — keeping batched inference bitwise identical to the per-sample
/// path. Remainder rows/columns fall back to plain ascending-k dots.
///
/// Rows of C are computed in pairs and the odd last row takes the remainder
/// path, so which code computes a row depends on its position. In a row
/// block that starts at a multiple of kGemmRowTile every row takes the same
/// path as inside the whole matrix — the rule row-chunked callers split by.
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
    gemmTileColumns<T, 8>(a, b, c, bias, i0, j0, n);
    gemmTileColumns<T, 4>(a, b, c, bias, i0, j0, n);
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

}  // namespace detail

template <typename T>
void matMulInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c) {
  detail::matMulBiasInto(a, b, c, static_cast<const T*>(nullptr));
}

/// C = A * B.
template <typename T>
MatrixT<T> matMul(const MatrixT<T>& a, const MatrixT<T>& b) {
  MatrixT<T> c;
  matMulInto(a, b, c);
  return c;
}

/// dst = src^T (dst resized; reuses capacity).
template <typename T>
void transposeInto(const MatrixT<T>& src, MatrixT<T>& dst) {
  assert(&dst != &src);
  dst.resize(src.cols(), src.rows());
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const T* sr = src.row(r);
    for (std::size_t c = 0; c < src.cols(); ++c) dst(c, r) = sr[c];
  }
}

template <typename T>
MatrixT<T> transpose(const MatrixT<T>& src) {
  MatrixT<T> dst;
  transposeInto(src, dst);
  return dst;
}

/// C = A * B^T — the layer-inference shape (activations × weights) when B is
/// stored row-major as outDim × inDim. Internally packs B^T once (O(B.size())
/// against O(A.rows() · B.size()) of math) and runs the blocked kernel, so
/// accumulation order still matches matVec exactly.
template <typename T>
void matMulTransBInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c,
                      MatrixT<T>& packBuf) {
  assert(a.cols() == b.cols());
  transposeInto(b, packBuf);
  matMulInto(a, packBuf, c);
}

template <typename T>
MatrixT<T> matMulTransB(const MatrixT<T>& a, const MatrixT<T>& b) {
  MatrixT<T> c;
  MatrixT<T> pack;
  matMulTransBInto(a, b, c, pack);
  return c;
}

/// C = A · B^T with `bias` broadcast-added to every row, fused into the
/// micro-kernel's store so C is touched once — the dense-layer pre-activation
/// in one call. Bias is added after the full k-sum, matching a matVec
/// followed by a bias add exactly.
template <typename T>
void matMulTransBBiasInto(const MatrixT<T>& a, const MatrixT<T>& b,
                          const std::vector<T>& bias, MatrixT<T>& c,
                          MatrixT<T>& packBuf) {
  assert(a.cols() == b.cols());
  assert(bias.size() == b.rows());
  transposeInto(b, packBuf);
  detail::matMulBiasInto(a, packBuf, c, bias.data());
}

namespace detail {

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

/// C += A^T * B — the weight-gradient shape: gradW += gradOut^T · inputs.
///
/// Register-tiled over C: a 2-row × 8-column tile (then narrower remainders)
/// is accumulated across all rows of A and B before being stored once,
/// instead of read-modify-writing C once per row. Per element, products are
/// still added one at a time in ascending row order, and a zero A(r, i) still
/// skips row r for row i of C, so the result matches a sequence of
/// per-sample rank-1 updates bit for bit.
template <typename T>
void gemmAtBAccum(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c) {
  assert(a.rows() == b.rows());
  assert(c.rows() == a.cols() && c.cols() == b.cols());
  std::size_t i0 = 0;
  for (; i0 + 2 <= a.cols(); i0 += 2) detail::gemmAtBRows<T, 2>(a, b, c, i0);
  for (; i0 < a.cols(); ++i0) detail::gemmAtBRows<T, 1>(a, b, c, i0);
}

/// Every row of `m` += v (the batched bias add).
template <typename T>
void addRowwise(MatrixT<T>& m, const std::vector<T>& v) {
  assert(m.cols() == v.size());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    T* mr = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) mr[c] += v[c];
  }
}

/// out[c] += sum over rows of m(r, c), rows ascending (the batched bias
/// gradient: per-sample accumulation order preserved).
template <typename T>
void addColSums(const MatrixT<T>& m, std::vector<T>& out) {
  assert(m.cols() == out.size());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const T* mr = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) out[c] += mr[c];
  }
}

// ---- Small vector helpers shared across the project ----

double dot(const Vector& a, const Vector& b);
double norm2(const Vector& a);
double normInf(const Vector& a);
/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);
Vector scaled(const Vector& x, double alpha);
Vector add(const Vector& a, const Vector& b);
Vector sub(const Vector& a, const Vector& b);

}  // namespace trdse::linalg
