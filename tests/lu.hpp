// The reference solvers' scalar LU (tests/sim_reference.hpp): factorization
// with partial pivoting, templated over the scalar so the same code solves
// real Newton systems (DC operating point) and complex small-signal systems
// (AC sweep). The lane-blocked LUs in sim/op_batch.cpp must reproduce it bit
// for bit.
//
// Header-only: a test TU that includes it is compiled with FP contraction and
// the vectorizers off (see CMakeLists.txt). GCC's SLP complex-operation
// patterns would otherwise re-form the complex LU's hand-written re/im
// arithmetic into fused multiply-addsub instructions even under
// -ffp-contract=off, which rounds differently from the lane-blocked complex
// LU's split planes.
#pragma once

#include <cassert>
#include <cmath>
#include <complex>
#include <optional>
#include <type_traits>
#include <vector>

#include "cxmath.hpp"
#include "linalg/matrix.hpp"

namespace trdse::linalg {

/// In-place LU factorization with row pivoting. After a successful factor(),
/// solve() may be called any number of times with different right-hand sides.
template <typename T>
class LuSolver {
 public:
  LuSolver() = default;

  /// Factor A (copied). Returns false when A is numerically singular.
  bool factor(const MatrixT<T>& a);

  /// Solve A x = b using the stored factorization. Requires factor() == true.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Allocation-free solve: reads b[0..n), writes x[0..n). b and x may not
  /// alias. This is the Newton-loop entry point — factor() reuses the matrix
  /// capacity and solveInto touches no heap, so a factor+solve per iteration
  /// costs no allocations in steady state.
  void solveInto(const T* b, T* x) const;

  /// One-shot convenience: factor and solve; nullopt when singular.
  static std::optional<std::vector<T>> solveSystem(const MatrixT<T>& a,
                                                   const std::vector<T>& b);

  bool factored() const { return factored_; }
  std::size_t dim() const { return lu_.rows(); }

 private:
  MatrixT<T> lu_;
  std::vector<std::size_t> perm_;
  bool factored_ = false;
};

namespace detail {
inline double magnitude(double v) { return std::abs(v); }
// Complex pivots order by cabs1, matching the lane-blocked LU (cxmath.hpp).
inline double magnitude(const std::complex<double>& v) { return cxPivotMag(v); }
}  // namespace detail

template <typename T>
bool LuSolver<T>::factor(const MatrixT<T>& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  lu_ = a;
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  factored_ = false;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k.
    std::size_t pivot = k;
    double best = detail::magnitude(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = detail::magnitude(lu_(r, k));
      if (m > best) {
        best = m;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;  // numerically singular
    if (pivot != k) {
      std::swap(perm_[k], perm_[pivot]);
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot, c));
    }
    // No zero-skip on the elimination: performing the (mathematically inert)
    // update even when factor == 0 keeps the scalar op sequence identical to
    // the lane-blocked batched LU in sim/op_batch.cpp, which cannot branch
    // per lane. Complex pivots divide by multiplying with a shared naive
    // reciprocal for the same reason (and it is once per column, not per row).
    const T pivotVal = lu_(k, k);
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      const T invPivot = cxReciprocal(pivotVal);
      for (std::size_t r = k + 1; r < n; ++r) {
        const T factor = cxMul(lu_(r, k), invPivot);
        lu_(r, k) = factor;
        for (std::size_t c = k + 1; c < n; ++c)
          lu_(r, c) -= cxMul(factor, lu_(k, c));
      }
    } else {
      for (std::size_t r = k + 1; r < n; ++r) {
        const T factor = lu_(r, k) / pivotVal;
        lu_(r, k) = factor;
        for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
      }
    }
  }
  factored_ = true;
  return true;
}

template <typename T>
void LuSolver<T>::solveInto(const T* b, T* x) const {
  assert(factored_);
  const std::size_t n = lu_.rows();
  // Forward substitution with permutation (L has unit diagonal). Complex
  // products go through cxMul — see the contraction note in cxmath.hpp.
  for (std::size_t i = 0; i < n; ++i) {
    T acc = b[perm_[i]];
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      for (std::size_t j = 0; j < i; ++j) acc -= cxMul(lu_(i, j), x[j]);
    } else {
      for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    }
    x[i] = acc;
  }
  // Back substitution (complex divides via the shared reciprocal — see the
  // note in factor()).
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = x[ii];
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      for (std::size_t j = ii + 1; j < n; ++j) acc -= cxMul(lu_(ii, j), x[j]);
      x[ii] = cxMul(acc, cxReciprocal(lu_(ii, ii)));
    } else {
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
      x[ii] = acc / lu_(ii, ii);
    }
  }
}

template <typename T>
std::vector<T> LuSolver<T>::solve(const std::vector<T>& b) const {
  assert(b.size() == lu_.rows());
  std::vector<T> x(b.size());
  solveInto(b.data(), x.data());
  return x;
}

template <typename T>
std::optional<std::vector<T>> LuSolver<T>::solveSystem(const MatrixT<T>& a,
                                                       const std::vector<T>& b) {
  LuSolver<T> s;
  if (!s.factor(a)) return std::nullopt;
  return s.solve(b);
}

}  // namespace trdse::linalg
