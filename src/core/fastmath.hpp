#pragma once
// Deterministic branchless transcendentals for the simulator device cards.
//
// The operating-point kernels in src/sim need exp/log1p that (a) produce the
// same bit pattern on every platform and glibc version, (b) have no
// data-dependent branches so a scalar call and a lane of a vectorized block
// execute the same instruction sequence, and (c) vectorize well when evaluated
// over AoSoA lane blocks. libm satisfies none of these, so the device cards
// use the routines below. Accuracy is ~3 ulp over the domains the EKV model
// exercises (exp on [-708, 708], log1p on [0, 1e308]); both are monotone.
//
// fastExp follows the classic table-driven reduction: x = k*ln2/128 + r with
// |r| <= ln2/256, exp(x) = 2^(k/128) * exp(r), where 2^(i/128) comes from a
// 128-entry table and the integer part of k folds into the exponent bits.
// log1p(y) splits u = 1+y into 2^k * m with m in [sqrt(1/2), sqrt(2)) and
// evaluates 2*atanh((m-1)/(m+1)) as a Taylor tail (log1pTail); the rounding
// error of 1+y is restored exactly via c = (y - (u-1))/u. The EKV kernel
// (sim/mosfet.cpp) inlines that log1p into its fused exp/log path, scalar
// and 4-lane, from kLogAdj, logReduce4 and the log1pTail pair below.

#include <cstdint>
#include <cstring>

#include "core/simd.hpp"

namespace trdse::fastmath {

inline std::uint64_t bitsOf(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

inline double fromBits(std::uint64_t u) {
  double x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

// 2^(i/128) for i = 0..127, exact doubles.
inline constexpr double kExp2Tab[128] = {
    0x1.0000000000000p+0, 0x1.0163da9fb3335p+0, 0x1.02c9a3e778061p+0, 0x1.04315e86e7f85p+0,
    0x1.059b0d3158574p+0, 0x1.0706b29ddf6dep+0, 0x1.0874518759bc8p+0, 0x1.09e3ecac6f383p+0,
    0x1.0b5586cf9890fp+0, 0x1.0cc922b7247f7p+0, 0x1.0e3ec32d3d1a2p+0, 0x1.0fb66affed31bp+0,
    0x1.11301d0125b51p+0, 0x1.12abdc06c31ccp+0, 0x1.1429aaea92de0p+0, 0x1.15a98c8a58e51p+0,
    0x1.172b83c7d517bp+0, 0x1.18af9388c8deap+0, 0x1.1a35beb6fcb75p+0, 0x1.1bbe084045cd4p+0,
    0x1.1d4873168b9aap+0, 0x1.1ed5022fcd91dp+0, 0x1.2063b88628cd6p+0, 0x1.21f49917ddc96p+0,
    0x1.2387a6e756238p+0, 0x1.251ce4fb2a63fp+0, 0x1.26b4565e27cddp+0, 0x1.284dfe1f56381p+0,
    0x1.29e9df51fdee1p+0, 0x1.2b87fd0dad990p+0, 0x1.2d285a6e4030bp+0, 0x1.2ecafa93e2f56p+0,
    0x1.306fe0a31b715p+0, 0x1.32170fc4cd831p+0, 0x1.33c08b26416ffp+0, 0x1.356c55f929ff1p+0,
    0x1.371a7373aa9cbp+0, 0x1.38cae6d05d866p+0, 0x1.3a7db34e59ff7p+0, 0x1.3c32dc313a8e5p+0,
    0x1.3dea64c123422p+0, 0x1.3fa4504ac801cp+0, 0x1.4160a21f72e2ap+0, 0x1.431f5d950a897p+0,
    0x1.44e086061892dp+0, 0x1.46a41ed1d0057p+0, 0x1.486a2b5c13cd0p+0, 0x1.4a32af0d7d3dep+0,
    0x1.4bfdad5362a27p+0, 0x1.4dcb299fddd0dp+0, 0x1.4f9b2769d2ca7p+0, 0x1.516daa2cf6642p+0,
    0x1.5342b569d4f82p+0, 0x1.551a4ca5d920fp+0, 0x1.56f4736b527dap+0, 0x1.58d12d497c7fdp+0,
    0x1.5ab07dd485429p+0, 0x1.5c9268a5946b7p+0, 0x1.5e76f15ad2148p+0, 0x1.605e1b976dc09p+0,
    0x1.6247eb03a5585p+0, 0x1.6434634ccc320p+0, 0x1.6623882552225p+0, 0x1.68155d44ca973p+0,
    0x1.6a09e667f3bcdp+0, 0x1.6c012750bdabfp+0, 0x1.6dfb23c651a2fp+0, 0x1.6ff7df9519484p+0,
    0x1.71f75e8ec5f74p+0, 0x1.73f9a48a58174p+0, 0x1.75feb564267c9p+0, 0x1.780694fde5d3fp+0,
    0x1.7a11473eb0187p+0, 0x1.7c1ed0130c132p+0, 0x1.7e2f336cf4e62p+0, 0x1.80427543e1a12p+0,
    0x1.82589994cce13p+0, 0x1.8471a4623c7adp+0, 0x1.868d99b4492edp+0, 0x1.88ac7d98a6699p+0,
    0x1.8ace5422aa0dbp+0, 0x1.8cf3216b5448cp+0, 0x1.8f1ae99157736p+0, 0x1.9145b0b91ffc6p+0,
    0x1.93737b0cdc5e5p+0, 0x1.95a44cbc8520fp+0, 0x1.97d829fde4e50p+0, 0x1.9a0f170ca07bap+0,
    0x1.9c49182a3f090p+0, 0x1.9e86319e32323p+0, 0x1.a0c667b5de565p+0, 0x1.a309bec4a2d33p+0,
    0x1.a5503b23e255dp+0, 0x1.a799e1330b358p+0, 0x1.a9e6b5579fdbfp+0, 0x1.ac36bbfd3f37ap+0,
    0x1.ae89f995ad3adp+0, 0x1.b0e07298db666p+0, 0x1.b33a2b84f15fbp+0, 0x1.b59728de5593ap+0,
    0x1.b7f76f2fb5e47p+0, 0x1.ba5b030a1064ap+0, 0x1.bcc1e904bc1d2p+0, 0x1.bf2c25bd71e09p+0,
    0x1.c199bdd85529cp+0, 0x1.c40ab5fffd07ap+0, 0x1.c67f12e57d14bp+0, 0x1.c8f6d9406e7b5p+0,
    0x1.cb720dcef9069p+0, 0x1.cdf0b555dc3fap+0, 0x1.d072d4a07897cp+0, 0x1.d2f87080d89f2p+0,
    0x1.d5818dcfba487p+0, 0x1.d80e316c98398p+0, 0x1.da9e603db3285p+0, 0x1.dd321f301b460p+0,
    0x1.dfc97337b9b5fp+0, 0x1.e264614f5a129p+0, 0x1.e502ee78b3ff6p+0, 0x1.e7a51fbc74c83p+0,
    0x1.ea4afa2a490dap+0, 0x1.ecf482d8e67f1p+0, 0x1.efa1bee615a27p+0, 0x1.f252b376bba97p+0,
    0x1.f50765b6e4540p+0, 0x1.f7bfdad9cbe14p+0, 0x1.fa7c1819e90d8p+0, 0x1.fd3c22b8f71f1p+0,
};

inline constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 20 low bits 0
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kInvLn2N = 128.0 / 6.93147180559945309417e-01;
inline constexpr double kLn2NHi = kLn2Hi / 128.0;  // exact power-of-two scale
inline constexpr double kLn2NLo = kLn2Lo / 128.0;
inline constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
// Offset that places the reduced mantissa in [sqrt(1/2), sqrt(2)).
inline constexpr std::uint64_t kLogAdj =
    0x3ff0000000000000ull - 0x3fe6a09e667f3bcdull;

// exp(x), saturating outside [-708, 708]. Branchless, monotone, ~3 ulp.
inline double fastExp(double x) {
  const double xc = x < -708.0 ? -708.0 : (x > 708.0 ? 708.0 : x);
  const double kd = xc * kInvLn2N + kShift;
  const std::uint64_t ki = bitsOf(kd);
  const double k = kd - kShift;
  const double r = (xc - k * kLn2NHi) - k * kLn2NLo;
  const double r2 = r * r;
  const double p = 1.0 + r + r2 * (0.5 + r * (1.0 / 6.0) +
                                   r2 * ((1.0 / 24.0) + r * (1.0 / 120.0)));
  const double s = fromBits(bitsOf(kExp2Tab[ki & 127]) + ((ki >> 7) << 52));
  return s * p;
}

// 2*atanh(s)/s - 2 tail for s^2 = z; z stays below 0.0295 after reduction, so
// the plain Taylor coefficients reach ~1e-18 by the z^10 term.
inline double log1pTail(double z) {
  return z * (2.0 / 3.0 +
              z * (2.0 / 5.0 +
                   z * (2.0 / 7.0 +
                        z * (2.0 / 9.0 +
                             z * (2.0 / 11.0 +
                                  z * (2.0 / 13.0 +
                                       z * (2.0 / 15.0 +
                                            z * (2.0 / 17.0 +
                                                 z * (2.0 / 19.0 +
                                                      z * (2.0 / 21.0))))))))));
}

// ---------------------------------------------------------------------------
// Explicit 4-lane versions. Each evaluates the *identical* per-lane expression
// sequence as its scalar twin above (same literals, same association, pure
// elementwise ops), so lane l of the vector result is bit-identical to the
// scalar call on lane l's input — the invariant the scalar<->batched
// differential tests in tests/sim_batch_test.cpp pin down. Only the 128-entry
// table lookup runs as a scalar gather, exactly as the scalar path indexes it.

/// 4-lane fastExp. Bit-identical per lane to fastExp().
inline simd::V4d fastExp4(simd::V4d x) {
  using simd::V4d;
  using simd::V4u;
  const V4d lo = simd::splat4(-708.0);
  const V4d hi = simd::splat4(708.0);
  const V4d xc = simd::select4(x < lo, lo, simd::select4(x > hi, hi, x));
  const V4d kd = xc * kInvLn2N + kShift;
  const V4u ki = simd::bits4(kd);
  const V4d k = kd - kShift;
  const V4d r = (xc - k * kLn2NHi) - k * kLn2NLo;
  const V4d r2 = r * r;
  const V4d p = 1.0 + r + r2 * (0.5 + r * (1.0 / 6.0) +
                                r2 * ((1.0 / 24.0) + r * (1.0 / 120.0)));
  V4d s;
  for (int l = 0; l < 4; ++l)  // gather stage, scalar like the scalar path
    s[l] = fromBits(bitsOf(kExp2Tab[ki[l] & 127]) + ((ki[l] >> 7) << 52));
  return s * p;
}

/// 4-lane log1pTail. Bit-identical per lane to log1pTail().
inline simd::V4d log1pTail4(simd::V4d z) {
  return z * (2.0 / 3.0 +
              z * (2.0 / 5.0 +
                   z * (2.0 / 7.0 +
                        z * (2.0 / 9.0 +
                             z * (2.0 / 11.0 +
                                  z * (2.0 / 13.0 +
                                       z * (2.0 / 15.0 +
                                            z * (2.0 / 17.0 +
                                                 z * (2.0 / 19.0 +
                                                      z * (2.0 / 21.0))))))))));
}

/// 4-lane log-style reduction of u = 1 + y: splits each lane into
/// 2^k * m with m in [sqrt(1/2), sqrt(2)), as the EKV kernel's scalar log1p
/// does from kLogAdj (sim/mosfet.cpp).
inline void logReduce4(simd::V4d u, simd::V4d* kOut, simd::V4d* mOut) {
  using simd::V4i;
  using simd::V4u;
  const V4u uu = simd::bits4(u);
  const V4i kRaw = (V4i)((uu + simd::splatU4(kLogAdj)) >> 52) - 1023;
  *kOut = __builtin_convertvector(kRaw, simd::V4d);
  *mOut = simd::fromBits4(uu - ((V4u)kRaw << 52));
}

}  // namespace trdse::fastmath
