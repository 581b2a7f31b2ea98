#ifndef SLAMBENCH_KFUSION_EXPF_HPP
#define SLAMBENCH_KFUSION_EXPF_HPP

/**
 * @file
 * The pipeline's own single-precision exp: a port of glibc's
 * table-driven expf (sysdeps/ieee754/flt-32/e_expf.c) in its generic,
 * non-FMA form, so a scalar and a vector form can agree bit for bit.
 *
 * exp(x) = 2^(k/N) * 2^(r/N), N = 32: z = x * N / ln2 is split into
 * an integer k (by the round-to-int trick z + 0x1.8p52) and a
 * remainder r in [-1/2, 1/2]; 2^(k/N) comes from a 32-entry table and
 * an exponent shift, 2^(r/N) from a degree-3 polynomial, all in
 * double, with one rounding to float at the end. Every step is a
 * plain multiply or add (no FMA), which a vector lane replays exactly.
 *
 * Two forms share the table below:
 *  - the scalar expf(), defined in kernels.cpp at the baseline ISA
 *    next to the bilateral filter loop that inlines it;
 *  - a 4-lane double form in backend_avx2.cpp (behind
 *    detail::expfAvx2 and the simd backend's bilateral row).
 *
 * The AVX2 lanes equal the scalar form on every float in [-110, 0]
 * (checked exhaustively: 1,121,714,177 inputs). The scalar form is
 * glibc's generic code. glibc's FMA build, which its IFUNC picks on
 * FMA hardware, fuses the range reduction and the polynomial and
 * differs from it at exactly one input of [-110, 0]:
 * x = -0x1.f8cbb2p+5 gives 0x1.f45324p-92 here, 0x1.f45326p-92 there.
 */

#include <cstdint>

namespace slambench::kfusion {

/** Table bits: 2^kExpTableBits entries. */
inline constexpr int kExpTableBits = 5;

/**
 * kExpTable[i] = bits(RN(2^(i/32))) - (i << 52) / 32, every entry
 * correctly rounded; adding `k << (52 - kExpTableBits)` yields the
 * bits of 2^(k/32) for the k with k % 32 == i.
 */
inline constexpr uint64_t kExpTable[1 << kExpTableBits] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/** N / ln 2. */
inline constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;
/** Round-to-int shift: z + kExpShift holds round(z) in its low bits. */
inline constexpr double kExpShift = 0x1.8p52;
/** Polynomial coefficients of 2^(r/N), highest degree first. */
inline constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
/** Below this, exp(x) rounds to 0 (x < log(2^-150)). */
inline constexpr float kExpUnderflow = -0x1.9fe368p6f;
/** Above this, exp(x) overflows to +inf (x > log(2^128)). */
inline constexpr float kExpOverflow = 0x1.62e42ep6f;

/**
 * exp(@p x) in float, the scalar form (the oracle of the vector one).
 * Returns 0 below kExpUnderflow and +inf above kExpOverflow; a NaN
 * propagates. Sets no errno.
 */
float expf(float x);

} // namespace slambench::kfusion

#endif // SLAMBENCH_KFUSION_EXPF_HPP
