#pragma once
// Explicit 4-lane double vectors for the batched simulator kernels, and the
// native-width register tiles of the GEMM (linalg/matrix.cpp).
//
// The hot loops in src/sim carry a bitwise contract: lane l of a batched
// kernel must reproduce the scalar kernel's result bit for bit. GNU vector
// extensions give us that for free — every operator below is elementwise
// IEEE-754 double arithmetic, identical to the scalar op on each lane, with
// no cross-lane reassociation the auto-vectorizer might or might not apply.
// On AVX2+ a V4d is one ymm register; on bare x86-64 the compiler splits it
// into two SSE2 halves with identical per-lane results, so the CI
// TRDSE_NATIVE=OFF build stays bit-compatible.
//
// Only elementwise select / bit-manipulation helpers live here; anything with
// a data-dependent memory access (table gathers) stays scalar at the call
// site, mirroring how the scalar kernels index the same tables.

#include <cstdint>
#include <cstring>
#include <type_traits>

// Without AVX the 32-byte vectors are passed in two SSE halves; every helper
// here is header-inline so no ABI boundary survives, and the psABI note would
// otherwise spam every -mno-avx (TRDSE_NATIVE=OFF) build.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace trdse::simd {

typedef double V4d __attribute__((vector_size(32)));
typedef std::int64_t V4i __attribute__((vector_size(32)));
typedef std::uint64_t V4u __attribute__((vector_size(32)));
typedef double V8d __attribute__((vector_size(64)));

/// Unaligned load of a V (V4d, V8d, or plain double for a kernel templated
/// on its width).
template <typename V>
inline V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename V>
inline void store(double* p, V v) {
  std::memcpy(p, &v, sizeof(v));
}

/// A V with every lane x.
template <typename V>
inline V splat(double x) {
  if constexpr (std::is_same_v<V, double>) {
    return x;
  } else if constexpr (sizeof(V) == sizeof(V4d)) {
    return V{x, x, x, x};
  } else {
    static_assert(sizeof(V) == sizeof(V8d));
    return V{x, x, x, x, x, x, x, x};
  }
}

inline V4d load4(const double* p) { return load<V4d>(p); }

inline void store4(double* p, V4d v) { store(p, v); }

inline V4d splat4(double x) { return splat<V4d>(x); }

/// Reinterpret lane bits (the vector analogue of fastmath::bitsOf/fromBits).
inline V4u bits4(V4d x) {
  V4u u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

inline V4d fromBits4(V4u u) {
  V4d x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

/// Per-lane `mask ? a : b` where `mask` comes from a vector comparison
/// (all-ones / all-zero lanes). Pure bit selection — never touches the
/// value of the unselected arm, exactly like the scalar ternary.
inline V4d select4(V4i mask, V4d a, V4d b) {
  V4u um;
  std::memcpy(&um, &mask, sizeof(um));
  return fromBits4((bits4(a) & um) | (bits4(b) & ~um));
}

inline V4u splatU4(std::uint64_t x) { return V4u{x, x, x, x}; }

inline V4i splatI4(std::int64_t x) { return V4i{x, x, x, x}; }

/// Per-lane integer `mask ? a : b` (mask lanes all-ones / all-zero).
inline V4i selectI4(V4i mask, V4i a, V4i b) {
  return (a & mask) | (b & ~mask);
}

/// Per-lane |x| by clearing the sign bit — bit-identical to std::abs(double).
inline V4d abs4(V4d x) {
  return fromBits4(bits4(x) & splatU4(0x7fffffffffffffffull));
}

/// Per-lane sqrt. Written as a lane loop so it needs no intrinsic header;
/// with -fno-math-errno the compiler folds it to one vsqrtpd. sqrt is
/// correctly rounded, so the lanes match scalar std::sqrt bit for bit.
inline V4d sqrt4(V4d x) {
  V4d r;
  for (int i = 0; i < 4; ++i) r[i] = __builtin_sqrt(x[i]);
  return r;
}

// ---- 8-lane vectors for the interleaved complex plane layout --------------
//
// The AC engine stores one matrix cell as 8 adjacent doubles — four real
// lanes then four imaginary lanes — so a V8d is exactly one cell (one zmm on
// AVX-512; without it GCC splits into ymm/xmm halves with identical per-lane
// results, keeping the TRDSE_NATIVE=OFF build bit-compatible). concat8
// only repackages lanes; every arithmetic op stays elementwise IEEE double,
// so the bitwise contract is exactly V4d's.

inline V8d load8(const double* p) { return load<V8d>(p); }

inline void store8(double* p, V8d v) { store(p, v); }

/// [lo0..lo3, hi0..hi3] — pack two plane vectors into one cell vector.
inline V8d concat8(V4d lo, V4d hi) {
  return __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
}

}  // namespace trdse::simd
