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

// The hot element-wise kernels (Adam, tanh) promise the compiler
// non-overlapping spans so their unit-stride loops vectorize without runtime
// alias checks.
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
// the NN surrogate, and every surrogate fit runs its forward and backward
// passes as products of small batches; these kernels let every layer run as
// one matrix-matrix product instead of one matrix-vector product per sample.
//
// The kernels (matrix.cpp) walk C in register tiles of 4 rows by three, two
// or one of the build's native double vectors (8 lanes on AVX-512, 4
// otherwise), then a 4-wide tile, then scalar columns; leftover rows take
// 2-row and 1-row tiles. Each tile keeps its accumulators in registers across
// the whole shared dimension and stores C once. Whatever tile computes an
// element, its floating-point sequence is the same: the accumulator starts
// at +0 (at C for gemmAtBAccum), products are added one at a time in
// ascending k (or row) order, and a bias is added once after the sum — the
// association order of matVec, which keeps batched inference bitwise
// identical to the per-sample path.

/// Rows of C are computed four at a time, and leftover rows take narrower
/// tiles. Every tile computes an element the same way, and a row block that
/// starts at a multiple of kGemmRowTile also meets the same tiles as inside
/// the whole matrix — the rule row-chunked callers split by.
inline constexpr std::size_t kGemmRowTile = 4;

/// C = A * B with C resized by the callee. Buffers keep their capacity across
/// calls, so steady-state invocations do not allocate.
void matMulInto(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B.
Matrix matMul(const Matrix& a, const Matrix& b);

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
void matMulTransBInto(const Matrix& a, const Matrix& b, Matrix& c,
                      Matrix& packBuf);

Matrix matMulTransB(const Matrix& a, const Matrix& b);

/// C = A · B^T with `bias` broadcast-added to every row, fused into the
/// micro-kernel's store so C is touched once — the dense-layer pre-activation
/// in one call. Bias is added after the full k-sum, matching a matVec
/// followed by a bias add exactly.
void matMulTransBBiasInto(const Matrix& a, const Matrix& b, const Vector& bias,
                          Matrix& c, Matrix& packBuf);

/// C += A^T * B — the weight-gradient shape: gradW += gradOut^T · inputs.
///
/// Register-tiled over C like matMulInto: a tile is loaded from C once,
/// accumulated across all rows of A and B, and stored once. Per element,
/// products are still added one at a time in ascending row order, and a zero
/// A(r, i) still skips row r for row i of C, so the result matches a
/// sequence of per-sample rank-1 updates bit for bit.
void gemmAtBAccum(const Matrix& a, const Matrix& b, Matrix& c);

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
