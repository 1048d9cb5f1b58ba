#ifndef MIRAGE_COMMON_SIMD_H
#define MIRAGE_COMMON_SIMD_H

/**
 * @file
 * Portable data-level parallelism for the panel kernels: a small dispatch
 * layer over AVX2 (x86-64), NEON (aarch64), and a scalar fallback.
 *
 * Every operation here is **bit-identical to its scalar reference**:
 *
 * - The integer dots and axpys are exact 64-bit arithmetic, so lane order
 *   cannot change the result.
 * - The FP32 axpys perform one IEEE multiply followed by one IEEE add per
 *   element — the same two roundings, in the same per-element order, as
 *   the scalar loop. No FMA contraction is used (the AVX2 bodies are
 *   compiled with target("avx2") only, so the compiler cannot fuse), and
 *   each output element's accumulation chain is untouched: lanes map to
 *   distinct output columns, never to partial sums of one element.
 * - The one-pass BFP group encoders (encodeRowF32, encodeColsF32) compare
 *   float bit patterns for each group's largest magnitude (exact) and
 *   then compute every Floor or half-away-from-zero mantissa with integer
 *   shifts of the float's 24-bit significand. The reference scales in
 *   double, where x * 2^(bm - e) is exact, and rounds; the shifts give the
 *   same integer without leaving int32 lanes (see avx2::mantissas8).
 *   Stochastic rounding keeps the double route (quantizeStochasticF32):
 *   an exact widening, one exact multiply by a power of two, and the same
 *   floor and compare per element.
 * - The fused BFP panel (bfpPanel4) computes each chunk dot exactly — in
 *   int32 lanes, which the dispatch keeps for g 2^(2 bm) <= 2^31 - 1 —
 *   and then scales it by 2^e with one rounding to float and adds it in
 *   FP32 per chunk, in ascending chunk order. The reference rounds the
 *   exact double product. When every dot converts to float exactly
 *   (g 2^(2 bm) <= 2^24) and 2^e is a normal float, one float multiply
 *   rounds the same exact product once, so the vector body takes it.
 * - The layer kernels around the GEMMs move floats without arithmetic
 *   (transposeF32, im2colPlaneF32, whose padding lanes write +0.0f as the
 *   reference does), or add one source element into each destination
 *   element with one FP32 add (col2imPlaneF32), leaving every lane outside
 *   the plane's bounds untouched.
 *
 * Bit-identity is what lets the vectorized kernels keep the determinism
 * contract of runtime::parallelFor (thread-count-invariant results) *and*
 * the committed golden values of every accuracy experiment; it is verified
 * against the scalar reference by tests/test_simd.cpp.
 *
 * Dispatch: on x86-64 the AVX2 bodies are compiled as target("avx2")
 * functions and selected at runtime via __builtin_cpu_supports, so the
 * build needs no -mavx2 and the binary stays safe on pre-AVX2 hosts. On
 * aarch64 NEON is baseline. Set MIRAGE_SIMD=scalar (or 0) to force the
 * scalar reference — results are identical either way; the switch exists
 * for benchmarking the vector speedup and for debugging.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/math_util.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MIRAGE_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define MIRAGE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace mirage {
namespace simd {

/** Mantissa rounding of the BFP quantizer (quantizeOne), applied to the
 *  scaled value s; the modes of bfp::Rounding. */
enum class QuantRound
{
    Floor,      ///< floor(s): two's-complement LSB truncation.
    HalfAway,   ///< s >= 0 ? floor(s + 0.5) : ceil(s - 0.5).
    Stochastic, ///< floor(s) + (u < s - floor(s)), u a caller uniform.
};

/// Sign-cleared float bit patterns at or above this are Inf or NaN.
constexpr uint32_t kNonFiniteAbsBits = 0x7f800000u;

/**
 * Shared exponent of a BFP group from its largest magnitude bits
 * (maxAbsBitsF32, below kNonFiniteAbsBits): the frexp exponent e,
 * 2^(e-1) <= |v| < 2^e, of the largest |v|, or 0 for an all-zero group.
 * Normal floats carry it in their biased exponent field; a subnormal is
 * bits * 2^-149, so its exponent follows from the bit width. Finite
 * groups land in [-148, 128].
 */
inline int32_t
groupExponent(uint32_t max_bits)
{
    if (max_bits == 0)
        return 0;
    const int32_t biased = static_cast<int32_t>(max_bits >> 23);
    return biased != 0 ? biased - 126
                       : static_cast<int32_t>(std::bit_width(max_bits)) - 149;
}

/** What a one-pass BFP group encoder (encodeRowF32, encodeColsF32) saw. */
struct GroupEncodeStats
{
    /// Largest sign-cleared bit pattern of any element. At or above
    /// kNonFiniteAbsBits when one was Inf or NaN; the outputs are then
    /// unspecified.
    uint32_t max_bits = 0;
    int64_t clipped = 0; ///< Mantissas clamped to [-2^bm, 2^bm - 1].
};

// ---------------------------------------------------------------------------
// Scalar reference implementations (always available; used as the fallback
// and as the golden reference in tests).
// ---------------------------------------------------------------------------

namespace scalar {

/** Exact signed dot: sum of int32*int32 products in int64. */
inline int64_t
dotI32I64(const int32_t *a, const int32_t *b, int n)
{
    int64_t sum = 0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<int64_t>(a[i]) * b[i];
    return sum;
}

/** Exact dot of uint64 arrays whose values fit in 32 bits (residues).
 *  The caller guarantees the raw accumulation cannot overflow. */
inline uint64_t
dotU64Lo32(const uint64_t *a, const uint64_t *b, int n)
{
    uint64_t sum = 0;
    for (int i = 0; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

/** r[j] += a * b[j] (one multiply, one add per element). */
inline void
axpyF32(float a, const float *b, float *r, int n)
{
    for (int j = 0; j < n; ++j)
        r[j] += a * b[j];
}

/** Four-row FP32 axpy sharing every b[j] load. */
inline void
axpy4F32(float a0, float a1, float a2, float a3, const float *b, float *r0,
         float *r1, float *r2, float *r3, int n)
{
    for (int j = 0; j < n; ++j) {
        const float bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

/** r[j] += (int64)a * b[j] over int32 operands into an int64 panel. */
inline void
axpyI32I64(int32_t a, const int32_t *b, int64_t *r, int n)
{
    for (int j = 0; j < n; ++j)
        r[j] += static_cast<int64_t>(a) * b[j];
}

/** Four-row int32->int64 axpy sharing every b[j] load. */
inline void
axpy4I32I64(int32_t a0, int32_t a1, int32_t a2, int32_t a3, const int32_t *b,
            int64_t *r0, int64_t *r1, int64_t *r2, int64_t *r3, int n)
{
    for (int j = 0; j < n; ++j) {
        const int64_t bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

/** r[j] += a * b[j] over uint64 values that fit in 32 bits; exact as long
 *  as the caller's reduction cadence bounds the raw accumulation. */
inline void
axpyU64Lo32(uint64_t a, const uint64_t *b, uint64_t *r, int n)
{
    for (int j = 0; j < n; ++j)
        r[j] += a * b[j];
}

/** Four-row uint64(lo32) axpy sharing every b[j] load. */
inline void
axpy4U64Lo32(uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3,
             const uint64_t *b, uint64_t *r0, uint64_t *r1, uint64_t *r2,
             uint64_t *r3, int n)
{
    for (int j = 0; j < n; ++j) {
        const uint64_t bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

/**
 * 4 x jt GEMM panel: acc[r][j] += sum_k a[r*lda + k] * b[k*ldb + j] for
 * k in [0, kd), r in [0, 4), j in [0, jt). `acc` is row-major 4 x jt.
 * Rows whose a[r][k] is zero are skipped for that k — exactly the zero
 * skip of the blocked kernels this backs (and for FP32 it dodges 0 * inf).
 * Each element accumulates in ascending k with one multiply + one add per
 * step, so every backend — including the register-tiled vector ones — is
 * bit-identical to this reference.
 */
inline void
gemmPanel4F32(const float *a, int64_t lda, const float *b, int64_t ldb,
              int kd, float *acc, int jt)
{
    for (int k = 0; k < kd; ++k) {
        const float *b_row = b + static_cast<size_t>(k) * ldb;
        for (int r = 0; r < 4; ++r) {
            const float ar = a[static_cast<size_t>(r) * lda + k];
            if (ar == 0.0f)
                continue;
            float *row = acc + static_cast<size_t>(r) * jt;
            for (int j = 0; j < jt; ++j)
                row[j] += ar * b_row[j];
        }
    }
}

/** Integer panel twin of gemmPanel4F32 (int32 operands, int64 panel). */
inline void
gemmPanel4I32I64(const int32_t *a, int64_t lda, const int32_t *b, int64_t ldb,
                 int kd, int64_t *acc, int jt)
{
    for (int k = 0; k < kd; ++k) {
        const int32_t *b_row = b + static_cast<size_t>(k) * ldb;
        for (int r = 0; r < 4; ++r) {
            const int32_t ar = a[static_cast<size_t>(r) * lda + k];
            if (ar == 0)
                continue;
            int64_t *row = acc + static_cast<size_t>(r) * jt;
            for (int j = 0; j < jt; ++j)
                row[j] += static_cast<int64_t>(ar) * b_row[j];
        }
    }
}

/** Residue panel twin of gemmPanel4F32: uint64 values that fit in 32 bits,
 *  raw (unreduced) accumulation — the caller bounds kd so sums cannot
 *  overflow, and reduces between calls. */
inline void
gemmPanel4U64Lo32(const uint64_t *a, int64_t lda, const uint64_t *b,
                  int64_t ldb, int kd, uint64_t *acc, int jt)
{
    for (int k = 0; k < kd; ++k) {
        const uint64_t *b_row = b + static_cast<size_t>(k) * ldb;
        for (int r = 0; r < 4; ++r) {
            const uint64_t ar = a[static_cast<size_t>(r) * lda + k];
            if (ar == 0)
                continue;
            uint64_t *row = acc + static_cast<size_t>(r) * jt;
            for (int j = 0; j < jt; ++j)
                row[j] += ar * b_row[j];
        }
    }
}

/**
 * Fused BFP GEMM panel, the compute loop of bfp::bfpGemm: up to four
 * output rows over every K-chunk. Chunk c covers k in [c g, c g + live),
 * live = min(g, kd - c g), and for r < rows, j < n:
 *
 *   out[r ldo + j] = +0.0f, then for c = 0, 1, ... in ascending order
 *     += float(double(dot) * 2^(ea[r chunks + c] + eb[c n + j] - 2 bm)),
 *   dot = sum over k in chunk c of a[r lda + k] * b[k n + j],
 *
 * with chunks = ceil(kd / g). `a` holds each row's int16 mantissas and
 * `b` is the K-major int32 layout of bfp::BfpColumnPanels, row k at
 * b + k n; both hold (bm + 1)-bit mantissas, |q| <= 2^bm, and only k < kd
 * is read from either. `ea` is rows x chunks and `eb` chunks x n. Rows
 * past `rows` are neither read nor written. Every exponent sum e (in
 * [-326, 254] for BFP) must leave |dot| 2^e finite and 2^e a normal
 * double, so the double product is exact and the float conversion is the
 * one rounding.
 *
 * This reference sums each dot exactly in int64. The vector bodies sum
 * (k, k + 1) pairs with a 16-bit multiply-add into int32 lanes, so they
 * need every partial dot to fit int32: |dot| <= g 2^(2 bm) <= 2^31 - 1
 * (Eq. 13 with psi = 2^31 - 1). The dispatching bfpPanel4 runs this
 * reference past that bound.
 */
inline void
bfpPanel4(const int16_t *a, int64_t lda, const int32_t *ea, const int32_t *b,
          const int32_t *eb, int kd, int g, int n, int bm, float *out,
          int64_t ldo, int rows)
{
    const int chunks = (kd + g - 1) / g;
    const int ebias = -2 * bm;
    constexpr int kTile = 8;
    for (int j0 = 0; j0 < n; j0 += kTile) {
        const int w = std::min(kTile, n - j0);
        for (int r = 0; r < rows; ++r) {
            float acc[kTile] = {};
            for (int c = 0; c < chunks; ++c) {
                const int live = std::min(g, kd - c * g);
                const int16_t *ar = a + r * lda + c * g;
                const int32_t *bc = b + static_cast<size_t>(c) * g * n + j0;
                int64_t dot[kTile] = {};
                for (int t = 0; t < live; ++t)
                    for (int j = 0; j < w; ++j)
                        dot[j] += static_cast<int64_t>(ar[t]) *
                                  bc[static_cast<size_t>(t) * n + j];
                const int e = ea[r * chunks + c] + ebias;
                for (int j = 0; j < w; ++j)
                    acc[j] += static_cast<float>(
                        static_cast<double>(dot[j]) *
                        exactPow2(e + eb[static_cast<size_t>(c) * n + j0 + j]));
            }
            std::copy_n(acc, w, out + r * ldo + j0);
        }
    }
}

/** |x| as its bit pattern. Finite magnitudes order like these integers,
 *  and the largest one has the group's largest frexp exponent. */
inline uint32_t
absBitsF32(float x)
{
    uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    return bits & 0x7fffffffu;
}

/** Largest absBitsF32 over x[0, n): 0 for an all-zero (or empty) group,
 *  >= kNonFiniteAbsBits when any value is Inf or NaN. */
inline uint32_t
maxAbsBitsF32(const float *x, int n)
{
    uint32_t m = 0;
    for (int i = 0; i < n; ++i)
        m = std::max(m, absBitsF32(x[i]));
    return m;
}

/** Column twin of maxAbsBitsF32 over a rows x w block:
 *  m[j] = max over t in [0, rows) of absBitsF32(x[t * ldx + j]). */
inline void
maxAbsBitsColsF32(const float *x, int64_t ldx, int rows, int w, uint32_t *m)
{
    std::fill_n(m, w, 0u);
    for (int t = 0; t < rows; ++t) {
        const float *row = x + static_cast<size_t>(t) * ldx;
        for (int j = 0; j < w; ++j)
            m[j] = std::max(m[j], absBitsF32(row[j]));
    }
}

/** One element of quantizeF32; bumps `clipped` when it clamps. */
inline int32_t
quantizeOne(float x, double scale, QuantRound mode, double u, int32_t qmin,
            int32_t qmax, int64_t &clipped)
{
    const double s = static_cast<double>(x) * scale;
    double r = 0.0;
    switch (mode) {
      case QuantRound::Floor:
        r = std::floor(s);
        break;
      case QuantRound::HalfAway:
        r = s >= 0.0 ? std::floor(s + 0.5) : std::ceil(s - 0.5);
        break;
      case QuantRound::Stochastic: {
        const double f = std::floor(s);
        r = f + (u < s - f ? 1 : 0);
        break;
      }
    }
    const int32_t q = static_cast<int32_t>(r);
    if (q > qmax) {
        ++clipped;
        return qmax;
    }
    if (q < qmin) {
        ++clipped;
        return qmin;
    }
    return q;
}

/**
 * Stochastic-rounding BFP mantissa quantizer over a rows x w block:
 * q[t * ldq + j] = clamp(floor(s) + (u < s - floor(s)), qmin, qmax) for
 * s = double(x[t * ldx + j]) * scale, scale = scale[j] when
 * `column_scales`, else scale[t] (one scale per row), and u =
 * u[t * w + j]. Scales are powers of two, so the product is exact;
 * rounded values must fit in int32. Returns the number of clamped
 * elements.
 */
inline int64_t
quantizeStochasticF32(const float *x, int64_t ldx, int rows, int w,
                      const double *scale, bool column_scales,
                      const double *u, int32_t qmin, int32_t qmax, int32_t *q,
                      int64_t ldq)
{
    int64_t clipped = 0;
    for (int t = 0; t < rows; ++t) {
        const float *xr = x + static_cast<size_t>(t) * ldx;
        int32_t *qr = q + static_cast<size_t>(t) * ldq;
        for (int j = 0; j < w; ++j)
            qr[j] = quantizeOne(xr[j], column_scales ? scale[j] : scale[t],
                                QuantRound::Stochastic,
                                u[static_cast<size_t>(t) * w + j], qmin, qmax,
                                clipped);
    }
    return clipped;
}

/**
 * One-pass BFP encoder of one row, for QuantRound::Floor or HalfAway: the
 * n values split into consecutive groups of g along the row (the last may
 * be shorter). Group c's shared exponent is e[c] = groupExponent(its
 * maxAbsBitsF32), and each of its values x[i] gets the mantissa
 * q[i] = quantizeOne(x[i], 2^(bm - e[c]), mode) in [-2^bm, 2^bm - 1].
 * Q is int32_t, or int16_t for bm <= 15. This reference stops at the
 * first group that holds Inf or NaN.
 */
template <typename Q>
inline GroupEncodeStats
encodeRowF32(const float *x, int n, int g, int bm, QuantRound mode, Q *q,
             int32_t *e)
{
    GroupEncodeStats st;
    const int32_t qmin = -(1 << bm), qmax = (1 << bm) - 1;
    for (int start = 0, c = 0; start < n; start += g, ++c) {
        const int len = std::min(g, n - start);
        const uint32_t m = maxAbsBitsF32(x + start, len);
        st.max_bits = std::max(st.max_bits, m);
        if (m >= kNonFiniteAbsBits)
            return st;
        e[c] = groupExponent(m);
        const double scale = exactPow2(bm - e[c]);
        for (int i = start; i < start + len; ++i)
            q[i] = static_cast<Q>(
                quantizeOne(x[i], scale, mode, 0.0, qmin, qmax, st.clipped));
    }
    return st;
}

/**
 * Column twin of encodeRowF32 over the k_depth x w block x (row stride
 * ldx): column j is grouped down K in chunks of g rows. Chunk c's shared
 * exponent goes to e[c * lde + j] and the mantissa of (k, j) to
 * q[k * ldq + j], for k < k_depth.
 */
inline GroupEncodeStats
encodeColsF32(const float *x, int64_t ldx, int k_depth, int g, int w, int bm,
              QuantRound mode, int32_t *q, int64_t ldq, int32_t *e,
              int64_t lde)
{
    GroupEncodeStats st;
    const int32_t qmin = -(1 << bm), qmax = (1 << bm) - 1;
    for (int start = 0, c = 0; start < k_depth; start += g, ++c) {
        const int k1 = std::min(start + g, k_depth);
        for (int j = 0; j < w; ++j) {
            uint32_t m = 0;
            for (int k = start; k < k1; ++k)
                m = std::max(m, absBitsF32(x[k * ldx + j]));
            st.max_bits = std::max(st.max_bits, m);
            if (m >= kNonFiniteAbsBits)
                return st;
            const int32_t ec = groupExponent(m);
            e[c * lde + j] = ec;
            const double scale = exactPow2(bm - ec);
            for (int k = start; k < k1; ++k)
                q[k * ldq + j] = quantizeOne(x[k * ldx + j], scale, mode, 0.0,
                                             qmin, qmax, st.clipped);
        }
    }
    return st;
}

/** Row-major transpose: out[c * rows + r] = a[r * cols + c] for the
 *  rows x cols matrix a; out is cols x rows. */
inline void
transposeF32(const float *a, int rows, int cols, float *out)
{
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            out[static_cast<size_t>(c) * rows + r] =
                a[static_cast<size_t>(r) * cols + c];
}

/**
 * One stride-1 im2col plane: for oy < out_h, ox < out_w,
 * dst[oy out_w + ox] = x[iy w + ix] at (iy, ix) = (oy + dy, ox + dx) when
 * that lies inside the h x w plane x, else +0.0f. A convolution with
 * padding p fills the plane of kernel tap (ky, kx) with dy = ky - p,
 * dx = kx - p.
 */
inline void
im2colPlaneF32(const float *x, int h, int w, int dy, int dx, int out_h,
               int out_w, float *dst)
{
    for (int oy = 0; oy < out_h; ++oy) {
        const int iy = oy + dy;
        for (int ox = 0; ox < out_w; ++ox) {
            const int ix = ox + dx;
            float v = 0.0f;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                v = x[static_cast<size_t>(iy) * w + ix];
            dst[static_cast<size_t>(oy) * out_w + ox] = v;
        }
    }
}

/** Adjoint of im2colPlaneF32: x[iy w + ix] += src[oy out_w + ox] for
 *  every (iy, ix) = (oy + dy, ox + dx) inside the plane, one FP32 add per
 *  element; the rest of x is not touched. */
inline void
col2imPlaneF32(const float *src, int h, int w, int dy, int dx, int out_h,
               int out_w, float *x)
{
    for (int oy = 0; oy < out_h; ++oy) {
        const int iy = oy + dy;
        if (iy < 0 || iy >= h)
            continue;
        for (int ox = 0; ox < out_w; ++ox) {
            const int ix = ox + dx;
            if (ix < 0 || ix >= w)
                continue;
            x[static_cast<size_t>(iy) * w + ix] +=
                src[static_cast<size_t>(oy) * out_w + ox];
        }
    }
}

} // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 bodies (x86-64). Compiled with a per-function target attribute, so
// no global -mavx2 is needed and non-AVX2 hosts never execute them.
// target("avx2") deliberately omits "fma": the FP32 bodies must stay
// mul-then-add to match the scalar reference bit for bit.
// ---------------------------------------------------------------------------

#if defined(MIRAGE_SIMD_AVX2)

namespace avx2 {

__attribute__((target("avx2"))) inline int64_t
dotI32I64(const int32_t *a, const int32_t *b, int n)
{
    __m256i acc = _mm256_setzero_si256();
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        // Sign-extend 4 x i32 to the low halves of 4 x i64 lanes;
        // _mm256_mul_epi32 multiplies those low halves into full i64.
        const __m256i av = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + i)));
        const __m256i bv = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + i)));
        acc = _mm256_add_epi64(acc, _mm256_mul_epi32(av, bv));
    }
    alignas(32) int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i)
        sum += static_cast<int64_t>(a[i]) * b[i];
    return sum;
}

__attribute__((target("avx2"))) inline uint64_t
dotU64Lo32(const uint64_t *a, const uint64_t *b, int n)
{
    __m256i acc = _mm256_setzero_si256();
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        // Values fit in 32 bits, so multiplying the low halves is exact.
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        const __m256i bv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i));
        acc = _mm256_add_epi64(acc, _mm256_mul_epu32(av, bv));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

__attribute__((target("avx2"))) inline void
axpyF32(float a, const float *b, float *r, int n)
{
    const __m256 av = _mm256_set1_ps(a);
    int j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 bv = _mm256_loadu_ps(b + j);
        _mm256_storeu_ps(
            r + j, _mm256_add_ps(_mm256_loadu_ps(r + j),
                                 _mm256_mul_ps(av, bv)));
    }
    for (; j < n; ++j)
        r[j] += a * b[j];
}

__attribute__((target("avx2"))) inline void
axpy4F32(float a0, float a1, float a2, float a3, const float *b, float *r0,
         float *r1, float *r2, float *r3, int n)
{
    const __m256 a0v = _mm256_set1_ps(a0);
    const __m256 a1v = _mm256_set1_ps(a1);
    const __m256 a2v = _mm256_set1_ps(a2);
    const __m256 a3v = _mm256_set1_ps(a3);
    int j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 bv = _mm256_loadu_ps(b + j);
        _mm256_storeu_ps(r0 + j, _mm256_add_ps(_mm256_loadu_ps(r0 + j),
                                               _mm256_mul_ps(a0v, bv)));
        _mm256_storeu_ps(r1 + j, _mm256_add_ps(_mm256_loadu_ps(r1 + j),
                                               _mm256_mul_ps(a1v, bv)));
        _mm256_storeu_ps(r2 + j, _mm256_add_ps(_mm256_loadu_ps(r2 + j),
                                               _mm256_mul_ps(a2v, bv)));
        _mm256_storeu_ps(r3 + j, _mm256_add_ps(_mm256_loadu_ps(r3 + j),
                                               _mm256_mul_ps(a3v, bv)));
    }
    for (; j < n; ++j) {
        const float bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

__attribute__((target("avx2"))) inline void
axpyI32I64(int32_t a, const int32_t *b, int64_t *r, int n)
{
    const __m256i av = _mm256_set1_epi64x(a);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i bv = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + j)));
        const __m256i rv =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(r + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r + j),
                            _mm256_add_epi64(rv, _mm256_mul_epi32(av, bv)));
    }
    for (; j < n; ++j)
        r[j] += static_cast<int64_t>(a) * b[j];
}

__attribute__((target("avx2"))) inline void
axpy4I32I64(int32_t a0, int32_t a1, int32_t a2, int32_t a3, const int32_t *b,
            int64_t *r0, int64_t *r1, int64_t *r2, int64_t *r3, int n)
{
    const __m256i a0v = _mm256_set1_epi64x(a0);
    const __m256i a1v = _mm256_set1_epi64x(a1);
    const __m256i a2v = _mm256_set1_epi64x(a2);
    const __m256i a3v = _mm256_set1_epi64x(a3);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i bv = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + j)));
        __m256i rv = _mm256_loadu_si256(reinterpret_cast<__m256i *>(r0 + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r0 + j),
                            _mm256_add_epi64(rv, _mm256_mul_epi32(a0v, bv)));
        rv = _mm256_loadu_si256(reinterpret_cast<__m256i *>(r1 + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r1 + j),
                            _mm256_add_epi64(rv, _mm256_mul_epi32(a1v, bv)));
        rv = _mm256_loadu_si256(reinterpret_cast<__m256i *>(r2 + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r2 + j),
                            _mm256_add_epi64(rv, _mm256_mul_epi32(a2v, bv)));
        rv = _mm256_loadu_si256(reinterpret_cast<__m256i *>(r3 + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r3 + j),
                            _mm256_add_epi64(rv, _mm256_mul_epi32(a3v, bv)));
    }
    for (; j < n; ++j) {
        const int64_t bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

__attribute__((target("avx2"))) inline void
axpyU64Lo32(uint64_t a, const uint64_t *b, uint64_t *r, int n)
{
    const __m256i av = _mm256_set1_epi64x(static_cast<int64_t>(a));
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i bv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + j));
        const __m256i rv =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(r + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r + j),
                            _mm256_add_epi64(rv, _mm256_mul_epu32(av, bv)));
    }
    for (; j < n; ++j)
        r[j] += a * b[j];
}

__attribute__((target("avx2"))) inline void
axpy4U64Lo32(uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3,
             const uint64_t *b, uint64_t *r0, uint64_t *r1, uint64_t *r2,
             uint64_t *r3, int n)
{
    const __m256i a0v = _mm256_set1_epi64x(static_cast<int64_t>(a0));
    const __m256i a1v = _mm256_set1_epi64x(static_cast<int64_t>(a1));
    const __m256i a2v = _mm256_set1_epi64x(static_cast<int64_t>(a2));
    const __m256i a3v = _mm256_set1_epi64x(static_cast<int64_t>(a3));
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i bv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + j));
        __m256i rv = _mm256_loadu_si256(reinterpret_cast<__m256i *>(r0 + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r0 + j),
                            _mm256_add_epi64(rv, _mm256_mul_epu32(a0v, bv)));
        rv = _mm256_loadu_si256(reinterpret_cast<__m256i *>(r1 + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r1 + j),
                            _mm256_add_epi64(rv, _mm256_mul_epu32(a1v, bv)));
        rv = _mm256_loadu_si256(reinterpret_cast<__m256i *>(r2 + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r2 + j),
                            _mm256_add_epi64(rv, _mm256_mul_epu32(a2v, bv)));
        rv = _mm256_loadu_si256(reinterpret_cast<__m256i *>(r3 + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(r3 + j),
                            _mm256_add_epi64(rv, _mm256_mul_epu32(a3v, bv)));
    }
    for (; j < n; ++j) {
        const uint64_t bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

/**
 * Register-tiled FP32 panel: 16-column output tiles (4 rows x 2 ymm) stay
 * in registers across the whole k loop, so the accumulator panel is read
 * and written once instead of once per k step — that store traffic, not
 * the multiplies, bound the axpy formulation. Ops per element are the
 * same one multiply + one add in ascending k as the scalar reference
 * (no FMA: target("avx2") alone cannot contract), so results match it
 * bit for bit.
 */
__attribute__((target("avx2"))) inline void
gemmPanel4F32(const float *a, int64_t lda, const float *b, int64_t ldb,
              int kd, float *acc, int jt)
{
    const float *a0 = a;
    const float *a1 = a + lda;
    const float *a2 = a + 2 * lda;
    const float *a3 = a + 3 * lda;
    float *acc1 = acc + jt;
    float *acc2 = acc + 2 * jt;
    float *acc3 = acc + 3 * jt;
    int j = 0;
    for (; j + 16 <= jt; j += 16) {
        __m256 c00 = _mm256_loadu_ps(acc + j);
        __m256 c01 = _mm256_loadu_ps(acc + j + 8);
        __m256 c10 = _mm256_loadu_ps(acc1 + j);
        __m256 c11 = _mm256_loadu_ps(acc1 + j + 8);
        __m256 c20 = _mm256_loadu_ps(acc2 + j);
        __m256 c21 = _mm256_loadu_ps(acc2 + j + 8);
        __m256 c30 = _mm256_loadu_ps(acc3 + j);
        __m256 c31 = _mm256_loadu_ps(acc3 + j + 8);
        for (int k = 0; k < kd; ++k) {
            const float *b_row = b + static_cast<size_t>(k) * ldb + j;
            const __m256 b0 = _mm256_loadu_ps(b_row);
            const __m256 b1 = _mm256_loadu_ps(b_row + 8);
            if (a0[k] != 0.0f) {
                const __m256 av = _mm256_set1_ps(a0[k]);
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(av, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(av, b1));
            }
            if (a1[k] != 0.0f) {
                const __m256 av = _mm256_set1_ps(a1[k]);
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(av, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(av, b1));
            }
            if (a2[k] != 0.0f) {
                const __m256 av = _mm256_set1_ps(a2[k]);
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(av, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(av, b1));
            }
            if (a3[k] != 0.0f) {
                const __m256 av = _mm256_set1_ps(a3[k]);
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(av, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(av, b1));
            }
        }
        _mm256_storeu_ps(acc + j, c00);
        _mm256_storeu_ps(acc + j + 8, c01);
        _mm256_storeu_ps(acc1 + j, c10);
        _mm256_storeu_ps(acc1 + j + 8, c11);
        _mm256_storeu_ps(acc2 + j, c20);
        _mm256_storeu_ps(acc2 + j + 8, c21);
        _mm256_storeu_ps(acc3 + j, c30);
        _mm256_storeu_ps(acc3 + j + 8, c31);
    }
    if (j < jt) {
        // Column tail (< 16): per-k axpy over the remaining columns.
        for (int k = 0; k < kd; ++k) {
            const float *b_row = b + static_cast<size_t>(k) * ldb;
            for (int r = 0; r < 4; ++r) {
                const float ar = a[static_cast<size_t>(r) * lda + k];
                if (ar == 0.0f)
                    continue;
                float *row = acc + static_cast<size_t>(r) * jt;
                for (int jj = j; jj < jt; ++jj)
                    row[jj] += ar * b_row[jj];
            }
        }
    }
}

/** Register-tiled int32 -> int64 panel: 8-column tiles (4 rows x 2 ymm of
 *  four i64 lanes). Exact arithmetic — identical to the scalar twin. */
__attribute__((target("avx2"))) inline void
gemmPanel4I32I64(const int32_t *a, int64_t lda, const int32_t *b, int64_t ldb,
                 int kd, int64_t *acc, int jt)
{
    const int32_t *a0 = a;
    const int32_t *a1 = a + lda;
    const int32_t *a2 = a + 2 * lda;
    const int32_t *a3 = a + 3 * lda;
    int64_t *acc1 = acc + jt;
    int64_t *acc2 = acc + 2 * jt;
    int64_t *acc3 = acc + 3 * jt;
    int j = 0;
    for (; j + 8 <= jt; j += 8) {
        __m256i c00 = _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc + j));
        __m256i c01 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc + j + 4));
        __m256i c10 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc1 + j));
        __m256i c11 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc1 + j + 4));
        __m256i c20 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc2 + j));
        __m256i c21 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc2 + j + 4));
        __m256i c30 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc3 + j));
        __m256i c31 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc3 + j + 4));
        for (int k = 0; k < kd; ++k) {
            const int32_t *b_row = b + static_cast<size_t>(k) * ldb + j;
            const __m256i b0 = _mm256_cvtepi32_epi64(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(b_row)));
            const __m256i b1 = _mm256_cvtepi32_epi64(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(b_row + 4)));
            if (a0[k] != 0) {
                const __m256i av = _mm256_set1_epi64x(a0[k]);
                c00 = _mm256_add_epi64(c00, _mm256_mul_epi32(av, b0));
                c01 = _mm256_add_epi64(c01, _mm256_mul_epi32(av, b1));
            }
            if (a1[k] != 0) {
                const __m256i av = _mm256_set1_epi64x(a1[k]);
                c10 = _mm256_add_epi64(c10, _mm256_mul_epi32(av, b0));
                c11 = _mm256_add_epi64(c11, _mm256_mul_epi32(av, b1));
            }
            if (a2[k] != 0) {
                const __m256i av = _mm256_set1_epi64x(a2[k]);
                c20 = _mm256_add_epi64(c20, _mm256_mul_epi32(av, b0));
                c21 = _mm256_add_epi64(c21, _mm256_mul_epi32(av, b1));
            }
            if (a3[k] != 0) {
                const __m256i av = _mm256_set1_epi64x(a3[k]);
                c30 = _mm256_add_epi64(c30, _mm256_mul_epi32(av, b0));
                c31 = _mm256_add_epi64(c31, _mm256_mul_epi32(av, b1));
            }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j), c00);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j + 4), c01);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc1 + j), c10);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc1 + j + 4), c11);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc2 + j), c20);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc2 + j + 4), c21);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc3 + j), c30);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc3 + j + 4), c31);
    }
    if (j < jt) {
        for (int k = 0; k < kd; ++k) {
            const int32_t *b_row = b + static_cast<size_t>(k) * ldb;
            for (int r = 0; r < 4; ++r) {
                const int32_t ar = a[static_cast<size_t>(r) * lda + k];
                if (ar == 0)
                    continue;
                int64_t *row = acc + static_cast<size_t>(r) * jt;
                for (int jj = j; jj < jt; ++jj)
                    row[jj] += static_cast<int64_t>(ar) * b_row[jj];
            }
        }
    }
}

/** Register-tiled residue panel: 8-column tiles (4 rows x 2 ymm of four
 *  u64 lanes), 32x32->64 lane products. Exact — the caller bounds kd so
 *  raw sums cannot overflow and reduces between calls. */
__attribute__((target("avx2"))) inline void
gemmPanel4U64Lo32(const uint64_t *a, int64_t lda, const uint64_t *b,
                  int64_t ldb, int kd, uint64_t *acc, int jt)
{
    const uint64_t *a0 = a;
    const uint64_t *a1 = a + lda;
    const uint64_t *a2 = a + 2 * lda;
    const uint64_t *a3 = a + 3 * lda;
    uint64_t *acc1 = acc + jt;
    uint64_t *acc2 = acc + 2 * jt;
    uint64_t *acc3 = acc + 3 * jt;
    int j = 0;
    for (; j + 8 <= jt; j += 8) {
        __m256i c00 = _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc + j));
        __m256i c01 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc + j + 4));
        __m256i c10 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc1 + j));
        __m256i c11 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc1 + j + 4));
        __m256i c20 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc2 + j));
        __m256i c21 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc2 + j + 4));
        __m256i c30 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc3 + j));
        __m256i c31 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(acc3 + j + 4));
        for (int k = 0; k < kd; ++k) {
            const uint64_t *b_row = b + static_cast<size_t>(k) * ldb + j;
            const __m256i b0 =
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b_row));
            const __m256i b1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b_row + 4));
            if (a0[k] != 0) {
                const __m256i av =
                    _mm256_set1_epi64x(static_cast<int64_t>(a0[k]));
                c00 = _mm256_add_epi64(c00, _mm256_mul_epu32(av, b0));
                c01 = _mm256_add_epi64(c01, _mm256_mul_epu32(av, b1));
            }
            if (a1[k] != 0) {
                const __m256i av =
                    _mm256_set1_epi64x(static_cast<int64_t>(a1[k]));
                c10 = _mm256_add_epi64(c10, _mm256_mul_epu32(av, b0));
                c11 = _mm256_add_epi64(c11, _mm256_mul_epu32(av, b1));
            }
            if (a2[k] != 0) {
                const __m256i av =
                    _mm256_set1_epi64x(static_cast<int64_t>(a2[k]));
                c20 = _mm256_add_epi64(c20, _mm256_mul_epu32(av, b0));
                c21 = _mm256_add_epi64(c21, _mm256_mul_epu32(av, b1));
            }
            if (a3[k] != 0) {
                const __m256i av =
                    _mm256_set1_epi64x(static_cast<int64_t>(a3[k]));
                c30 = _mm256_add_epi64(c30, _mm256_mul_epu32(av, b0));
                c31 = _mm256_add_epi64(c31, _mm256_mul_epu32(av, b1));
            }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j), c00);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j + 4), c01);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc1 + j), c10);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc1 + j + 4), c11);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc2 + j), c20);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc2 + j + 4), c21);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc3 + j), c30);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc3 + j + 4), c31);
    }
    if (j < jt) {
        for (int k = 0; k < kd; ++k) {
            const uint64_t *b_row = b + static_cast<size_t>(k) * ldb;
            for (int r = 0; r < 4; ++r) {
                const uint64_t ar = a[static_cast<size_t>(r) * lda + k];
                if (ar == 0)
                    continue;
                uint64_t *row = acc + static_cast<size_t>(r) * jt;
                for (int jj = j; jj < jt; ++jj)
                    row[jj] += ar * b_row[jj];
            }
        }
    }
}

/** Lanes l with lo <= base + l < hi, as an int32 mask. */
__attribute__((target("avx2"))) inline __m256i
spanMask(int base, int lo, int hi)
{
    const __m256i idx =
        _mm256_add_epi32(_mm256_set1_epi32(base),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    return _mm256_andnot_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(lo), idx),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(hi), idx));
}

/** Eight int32 lanes at p; under Tail only the lanes set in `mask`, the
 *  rest read as 0 without touching their memory. */
template <bool Tail>
__attribute__((target("avx2"))) inline __m256i
load8I32(const int32_t *p, __m256i mask)
{
    if constexpr (Tail)
        return _mm256_maskload_epi32(p, mask);
    else
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

/** Float twin of load8I32: masked lanes read as +0.0f. */
template <bool Tail>
__attribute__((target("avx2"))) inline __m256
load8F32(const float *p, __m256i mask)
{
    if constexpr (Tail)
        return _mm256_maskload_ps(p, mask);
    else
        return _mm256_loadu_ps(p);
}

/** Stores the eight int32 lanes v at p; under Tail only the `mask`ed
 *  ones. */
template <bool Tail>
__attribute__((target("avx2"))) inline void
store8I32(int32_t *p, __m256i v, __m256i mask)
{
    if constexpr (Tail)
        _mm256_maskstore_epi32(p, mask, v);
    else
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** The int16 pair (p[0], p[1]) as one 32-bit word in every lane. */
__attribute__((target("avx2"))) inline __m256i
pairWord(const int16_t *p)
{
    int32_t word = 0;
    std::memcpy(&word, p, sizeof word);
    return _mm256_set1_epi32(word);
}

/** The int16 entry *p alone, zero-extended, in every lane. */
__attribute__((target("avx2"))) inline __m256i
loneWord(const int16_t *p)
{
    return _mm256_set1_epi32(static_cast<uint16_t>(*p));
}

/** float(double(s) * 2^(e - 1023)) per lane, e = eb + ea: an exact
 *  widening, the power of two built from the biased exponent e, one
 *  rounding to float. */
__attribute__((target("avx2"))) inline __m256
scaleToF32(__m256i s, __m256i eb, int32_t ea)
{
    const __m256i e = _mm256_add_epi32(eb, _mm256_set1_epi32(ea));
    const __m256d p0 = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(e)), 52));
    const __m256d p1 = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(e, 1)), 52));
    const __m128 f0 = _mm256_cvtpd_ps(
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(s)), p0));
    const __m128 f1 = _mm256_cvtpd_ps(
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(s, 1)), p1));
    return _mm256_insertf128_ps(_mm256_castps128_ps256(f0), f1, 1);
}

/** float(s) * 2^(e - 127) per lane for a float-biased exponent e in
 *  [1, 254]: s converts exactly (|s| <= 2^24), 2^(e - 127) is a normal
 *  float, so the multiply is the one rounding of the exact product. */
__attribute__((target("avx2"))) inline __m256
scaleToF32Exact(__m256i s, __m256i e)
{
    return _mm256_mul_ps(_mm256_cvtepi32_ps(s),
                         _mm256_castsi256_ps(_mm256_slli_epi32(e, 23)));
}

/** True when every lane of the four float-biased exponents lies in
 *  [1, 254], the normal floats' range. */
__attribute__((target("avx2"))) inline bool
normalF32Exponents(__m256i e0, __m256i e1, __m256i e2, __m256i e3)
{
    const __m256i lo =
        _mm256_min_epi32(_mm256_min_epi32(e0, e1), _mm256_min_epi32(e2, e3));
    const __m256i hi =
        _mm256_max_epi32(_mm256_max_epi32(e0, e1), _mm256_max_epi32(e2, e3));
    const __m256i bad =
        _mm256_or_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(1), lo),
                        _mm256_cmpgt_epi32(hi, _mm256_set1_epi32(254)));
    return _mm256_testz_si256(bad, bad) != 0;
}

/** bfpPanel4 over output columns [j, j + 8), the last `mask`ed ones only
 *  under Tail. The 4 x 8 int32 chunk sums and FP32 outputs stay in
 *  registers; rows past `rows` recompute row 0 and are not stored.
 *  `exact_f32` says every chunk dot converts to float exactly; a chunk
 *  whose 4 x 8 exponent sums all lie in [-126, 127] then scales in
 *  float, and any other chunk through double (a masked lane counts with
 *  eb = 0, which can only send a chunk to the double route). */
template <bool Tail>
__attribute__((target("avx2"))) inline void
bfpPanel4Cols(const int16_t *a, int64_t lda, const int32_t *ea,
              const int32_t *b, const int32_t *eb, int kd, int g, int n,
              int bm, bool exact_f32, float *out, int64_t ldo, int rows, int j,
              __m256i mask)
{
    const int chunks = (kd + g - 1) / g;
    const int16_t *a0 = a;
    const int16_t *a1 = rows > 1 ? a + lda : a;
    const int16_t *a2 = rows > 2 ? a + 2 * lda : a;
    const int16_t *a3 = rows > 3 ? a + 3 * lda : a;
    const int32_t *e0 = ea;
    const int32_t *e1 = rows > 1 ? ea + chunks : ea;
    const int32_t *e2 = rows > 2 ? ea + 2 * chunks : ea;
    const int32_t *e3 = rows > 3 ? ea + 3 * chunks : ea;
    const __m256i bias = _mm256_set1_epi32(1023 - 2 * bm);
    const __m256i bias_f32 = _mm256_set1_epi32(127 - 2 * bm);
    __m256 f0 = _mm256_setzero_ps(), f1 = f0, f2 = f0, f3 = f0;
    for (int c = 0; c < chunks; ++c) {
        const int k1 = std::min((c + 1) * g, kd);
        __m256i s0 = _mm256_setzero_si256(), s1 = s0, s2 = s0, s3 = s0;
        int k = c * g;
        for (; k + 1 < k1; k += 2) {
            // B rows k and k + 1 as the (low, high) int16 halves of each
            // column's lane, against A's entries k and k + 1 as one word.
            const int32_t *bk = b + static_cast<size_t>(k) * n + j;
            const __m256i bp = _mm256_blend_epi16(
                load8I32<Tail>(bk, mask),
                _mm256_slli_epi32(load8I32<Tail>(bk + n, mask), 16), 0xAA);
            s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(pairWord(a0 + k), bp));
            s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(pairWord(a1 + k), bp));
            s2 = _mm256_add_epi32(s2, _mm256_madd_epi16(pairWord(a2 + k), bp));
            s3 = _mm256_add_epi32(s3, _mm256_madd_epi16(pairWord(a3 + k), bp));
        }
        if (k < k1) {
            // A ragged last row pairs with zero: A's word is its lone
            // entry, zero-extended, so B's sign bits in the high half
            // multiply nothing.
            const __m256i bl =
                load8I32<Tail>(b + static_cast<size_t>(k) * n + j, mask);
            s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(loneWord(a0 + k), bl));
            s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(loneWord(a1 + k), bl));
            s2 = _mm256_add_epi32(s2, _mm256_madd_epi16(loneWord(a2 + k), bl));
            s3 = _mm256_add_epi32(s3, _mm256_madd_epi16(loneWord(a3 + k), bl));
        }
        const __m256i ebc =
            load8I32<Tail>(eb + static_cast<size_t>(c) * n + j, mask);
        if (exact_f32) {
            const __m256i b0 = _mm256_add_epi32(
                ebc, _mm256_add_epi32(bias_f32, _mm256_set1_epi32(e0[c])));
            const __m256i b1 = _mm256_add_epi32(
                ebc, _mm256_add_epi32(bias_f32, _mm256_set1_epi32(e1[c])));
            const __m256i b2 = _mm256_add_epi32(
                ebc, _mm256_add_epi32(bias_f32, _mm256_set1_epi32(e2[c])));
            const __m256i b3 = _mm256_add_epi32(
                ebc, _mm256_add_epi32(bias_f32, _mm256_set1_epi32(e3[c])));
            if (normalF32Exponents(b0, b1, b2, b3)) {
                f0 = _mm256_add_ps(f0, scaleToF32Exact(s0, b0));
                f1 = _mm256_add_ps(f1, scaleToF32Exact(s1, b1));
                f2 = _mm256_add_ps(f2, scaleToF32Exact(s2, b2));
                f3 = _mm256_add_ps(f3, scaleToF32Exact(s3, b3));
                continue;
            }
        }
        const __m256i eb_biased = _mm256_add_epi32(ebc, bias);
        f0 = _mm256_add_ps(f0, scaleToF32(s0, eb_biased, e0[c]));
        f1 = _mm256_add_ps(f1, scaleToF32(s1, eb_biased, e1[c]));
        f2 = _mm256_add_ps(f2, scaleToF32(s2, eb_biased, e2[c]));
        f3 = _mm256_add_ps(f3, scaleToF32(s3, eb_biased, e3[c]));
    }
    const __m256 f[4] = {f0, f1, f2, f3};
    for (int r = 0; r < rows; ++r) {
        float *dst = out + r * ldo + j;
        if constexpr (Tail)
            _mm256_maskstore_ps(dst, mask, f[r]);
        else
            _mm256_storeu_ps(dst, f[r]);
    }
}

/** Fused BFP panel: 8-column tiles of int16-pair multiply-adds into int32
 *  lanes (vpmaddwd), a masked tile for the last n % 8 columns. Requires
 *  g 2^(2 bm) <= 2^31 - 1 (see scalar::bfpPanel4). Below g 2^(2 bm) <=
 *  2^24 every chunk dot converts to float exactly, which opens the float
 *  epilogue. */
__attribute__((target("avx2"))) inline void
bfpPanel4(const int16_t *a, int64_t lda, const int32_t *ea, const int32_t *b,
          const int32_t *eb, int kd, int g, int n, int bm, float *out,
          int64_t ldo, int rows)
{
    const bool exact_f32 = (int64_t{g} << (2 * bm)) <= (int64_t{1} << 24);
    int j = 0;
    for (; j + 8 <= n; j += 8)
        bfpPanel4Cols<false>(a, lda, ea, b, eb, kd, g, n, bm, exact_f32, out,
                             ldo, rows, j, _mm256_set1_epi32(-1));
    if (j < n)
        bfpPanel4Cols<true>(a, lda, ea, b, eb, kd, g, n, bm, exact_f32, out,
                            ldo, rows, j, spanMask(0, 0, n - j));
}

__attribute__((target("avx2"))) inline __m256i
absBits8(__m256 x)
{
    return _mm256_and_si256(_mm256_castps_si256(x),
                            _mm256_set1_epi32(0x7fffffff));
}

/** The largest of eight unsigned lanes, in every lane. */
__attribute__((target("avx2"))) inline __m256i
maxAcrossU32(__m256i v)
{
    v = _mm256_max_epu32(v, _mm256_permute2x128_si256(v, v, 1));
    v = _mm256_max_epu32(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    return _mm256_max_epu32(v,
                            _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
}

/** The largest of eight unsigned lanes. */
__attribute__((target("avx2"))) inline uint32_t
maxLaneU32(__m256i v)
{
    return static_cast<uint32_t>(_mm256_cvtsi256_si32(maxAcrossU32(v)));
}

/** Sum of eight int32 lanes. */
__attribute__((target("avx2"))) inline int64_t
sumLanesI32(__m256i v)
{
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    int64_t sum = 0;
    for (int32_t lane : lanes)
        sum += lane;
    return sum;
}

__attribute__((target("avx2"))) inline uint32_t
maxAbsBitsF32(const float *x, int n)
{
    __m256i acc = _mm256_setzero_si256();
    int i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_max_epu32(acc, absBits8(_mm256_loadu_ps(x + i)));
    uint32_t best = maxLaneU32(acc);
    for (; i < n; ++i)
        best = std::max(best, scalar::absBitsF32(x[i]));
    return best;
}

/** Eight columns per vector step, the column maxima held in a register
 *  across the rows. */
__attribute__((target("avx2"))) inline void
maxAbsBitsColsF32(const float *x, int64_t ldx, int rows, int w, uint32_t *m)
{
    int j = 0;
    for (; j + 8 <= w; j += 8) {
        __m256i acc = _mm256_setzero_si256();
        for (int t = 0; t < rows; ++t)
            acc = _mm256_max_epu32(
                acc, absBits8(_mm256_loadu_ps(
                         x + static_cast<size_t>(t) * ldx + j)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(m + j), acc);
    }
    if (j < w)
        scalar::maxAbsBitsColsF32(x + j, ldx, rows, w - j, m + j);
}

/** groupExponent of eight groups' largest magnitude bits m. A subnormal's
 *  bits (below 2^23) convert to float exactly, with biased exponent
 *  126 + their bit width. */
__attribute__((target("avx2"))) inline __m256i
groupExponent8(__m256i m)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i biased = _mm256_srli_epi32(m, 23);
    const __m256i width_biased = _mm256_srli_epi32(
        _mm256_castps_si256(_mm256_cvtepi32_ps(m)), 23);
    const __m256i e = _mm256_sub_epi32(
        _mm256_blendv_epi8(biased,
                           _mm256_sub_epi32(width_biased,
                                            _mm256_set1_epi32(149)),
                           _mm256_cmpeq_epi32(biased, zero)),
        _mm256_set1_epi32(126));
    return _mm256_andnot_si256(_mm256_cmpeq_epi32(m, zero), e);
}

/** Per-lane shifts of mantissas8 for groups with shared exponents e. */
struct GroupShifts
{
    __m256i base; ///< 150 - bm + e + pre
    __m256i pre;  ///< Significand left shift (mantissas8), one more
                  ///< under half-away rounding.
};

template <QuantRound R>
__attribute__((target("avx2"))) inline GroupShifts
groupShifts8(__m256i e, int bm)
{
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i base = _mm256_add_epi32(e, _mm256_set1_epi32(150 - bm));
    const __m256i pre = _mm256_max_epi32(_mm256_sub_epi32(one, base),
                                         _mm256_setzero_si256());
    GroupShifts gs;
    gs.base = _mm256_add_epi32(base, pre);
    gs.pre = R == QuantRound::Floor ? pre : _mm256_add_epi32(pre, one);
    return gs;
}

/**
 * Floor or half-away-from-zero mantissas of the eight floats x, exact in
 * int32 lanes, for groups with shared exponents e. Write |x| = M 2^(E -
 * 150), with M the 24-bit significand and E the biased exponent (1 for a
 * subnormal). Then, for base = 150 - bm + e,
 *   |x| 2^(bm - e) = (M << pre) 2^-sh,  sh = base + pre - E >= 0.
 * pre is 0, except in a group whose largest value is a subnormal below
 * 2^(bm - 149): every element is then subnormal (E = 1), base - E < 0,
 * and pre = 1 - base shifts left instead (M < 2^bm there, so nothing
 * overflows). Otherwise sh >= 24 - bm, and a variable shift by 32 or more
 * yields 0 (logical) or the sign (arithmetic): the exact floor of so small
 * a value. Since |s| = |x| 2^(bm - e) < 2^bm, floor(s) never leaves
 * [-2^bm, 2^bm - 1], and half-away rounding leaves it only at +2^bm, which
 * clamps to 2^bm - 1 = hi and adds -1 to neg_clipped.
 */
template <QuantRound R>
__attribute__((target("avx2"))) inline __m256i
mantissas8(__m256 x, const GroupShifts &gs, __m256i hi, __m256i &neg_clipped)
{
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i bits = _mm256_castps_si256(x);
    const __m256i abs = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff));
    const __m256i e_eff = _mm256_max_epi32(_mm256_srli_epi32(abs, 23), one);
    // A normal float's hidden bit replaces its exponent field E: subtract
    // (E - 1) << 23 (nothing for a subnormal).
    const __m256i sig = _mm256_sllv_epi32(
        _mm256_sub_epi32(abs,
                         _mm256_slli_epi32(_mm256_sub_epi32(e_eff, one), 23)),
        gs.pre);
    const __m256i sh = _mm256_sub_epi32(gs.base, e_eff);
    if constexpr (R == QuantRound::Floor) {
        // An arithmetic shift of the signed significand floors. sign_epi32
        // negates where x's sign bit is set (-0 has sig = 0).
        return _mm256_srav_epi32(_mm256_sign_epi32(sig, bits), sh);
    } else {
        // pre carries one more bit here, so sig 2^-sh = 2|s| and
        // floor(|s| + 1/2) = (floor(2|s|) + 1) >> 1; then the sign, as
        // ceil(s - 1/2) = -floor(-s + 1/2) for s < 0.
        const __m256i q = _mm256_sign_epi32(
            _mm256_srli_epi32(
                _mm256_add_epi32(_mm256_srlv_epi32(sig, sh), one), 1),
            bits);
        neg_clipped = _mm256_add_epi32(neg_clipped, _mm256_cmpgt_epi32(q, hi));
        return _mm256_min_epi32(q, hi);
    }
}

/** Stores the first `live` of the eight mantissas v at p (all eight
 *  unless Tail), narrowed to int16 for Q = int16_t; |v| <= 2^15. */
template <typename Q, bool Tail>
__attribute__((target("avx2"))) inline void
storeMantissas8(Q *p, __m256i v, __m256i mask, int live)
{
    if constexpr (std::is_same_v<Q, int32_t>) {
        store8I32<Tail>(p, v, mask);
    } else {
        const __m128i h = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                          _mm256_extracti128_si256(v, 1));
        if constexpr (Tail) {
            alignas(16) int16_t lanes[8];
            _mm_store_si128(reinterpret_cast<__m128i *>(lanes), h);
            std::memcpy(p, lanes, static_cast<size_t>(live) * sizeof(Q));
        } else {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(p), h);
        }
    }
}

/** encodeRowF32 for one rounding mode: per group, one vector pass for its
 *  largest magnitude bits and one for its mantissas; the group's last
 *  len % 8 values take masked steps. */
template <QuantRound R, typename Q>
__attribute__((target("avx2"))) inline GroupEncodeStats
encodeRowRoundF32(const float *x, int n, int g, int bm, Q *q, int32_t *e)
{
    const __m256i hi = _mm256_set1_epi32((1 << bm) - 1);
    __m256i max_bits = _mm256_setzero_si256();
    __m256i neg_clipped = max_bits;
    for (int start = 0, c = 0; start < n; start += g, ++c) {
        const int len = std::min(g, n - start);
        const int full = len & ~7;
        const __m256i tail = spanMask(0, 0, len - full);
        const float *xg = x + start;
        Q *qg = q + start;
        __m256i m = _mm256_setzero_si256();
        for (int t = 0; t < full; t += 8)
            m = _mm256_max_epu32(m, absBits8(_mm256_loadu_ps(xg + t)));
        if (full < len)
            m = _mm256_max_epu32(m, absBits8(load8F32<true>(xg + full, tail)));
        m = maxAcrossU32(m);
        max_bits = _mm256_max_epu32(max_bits, m);
        const __m256i ec = groupExponent8(m);
        e[c] = _mm256_cvtsi256_si32(ec);
        const GroupShifts gs = groupShifts8<R>(ec, bm);
        for (int t = 0; t < full; t += 8)
            storeMantissas8<Q, false>(
                qg + t,
                mantissas8<R>(_mm256_loadu_ps(xg + t), gs, hi, neg_clipped),
                tail, 8);
        if (full < len)
            storeMantissas8<Q, true>(
                qg + full,
                mantissas8<R>(load8F32<true>(xg + full, tail), gs, hi,
                              neg_clipped),
                tail, len - full);
    }
    GroupEncodeStats st;
    st.max_bits = maxLaneU32(max_bits);
    st.clipped = -sumLanesI32(neg_clipped);
    return st;
}

template <typename Q>
__attribute__((target("avx2"))) inline GroupEncodeStats
encodeRowF32(const float *x, int n, int g, int bm, QuantRound mode, Q *q,
             int32_t *e)
{
    if (mode == QuantRound::Floor)
        return encodeRowRoundF32<QuantRound::Floor>(x, n, g, bm, q, e);
    return encodeRowRoundF32<QuantRound::HalfAway>(x, n, g, bm, q, e);
}

/** Column maxima of one chunk's `rows` rows over the eight columns at x
 *  (the `mask`ed ones only under Tail): stores their shared exponents at
 *  e and returns their shifts. */
template <QuantRound R, bool Tail>
__attribute__((target("avx2"))) inline GroupShifts
encodeColsExponents(const float *x, int64_t ldx, int rows, int bm, int32_t *e,
                    __m256i mask, __m256i &max_bits)
{
    __m256i m = _mm256_setzero_si256();
    for (int t = 0; t < rows; ++t)
        m = _mm256_max_epu32(m, absBits8(load8F32<Tail>(x + t * ldx, mask)));
    max_bits = _mm256_max_epu32(max_bits, m);
    const __m256i ec = groupExponent8(m);
    store8I32<Tail>(e, ec, mask);
    return groupShifts8<R>(ec, bm);
}

/** Columns per block of encodeColsF32: the block's shifts stay in L1 while
 *  its rows are quantized as 256-byte runs. */
constexpr int kEncodeColsBlock = 64;

/** encodeColsF32 for one rounding mode. Per chunk and block of up to 64
 *  columns: one pass down the rows of each 8-column step for its shared
 *  exponents, then the mantissas row by row, the last w % 8 columns under
 *  a mask. Row-major stores keep the rows' streams few and contiguous. */
template <QuantRound R>
__attribute__((target("avx2"))) inline GroupEncodeStats
encodeColsRoundF32(const float *x, int64_t ldx, int k_depth, int g, int w,
                   int bm, int32_t *q, int64_t ldq, int32_t *e, int64_t lde)
{
    constexpr int kSteps = kEncodeColsBlock / 8;
    const __m256i all = _mm256_set1_epi32(-1);
    const __m256i hi = _mm256_set1_epi32((1 << bm) - 1);
    __m256i max_bits = _mm256_setzero_si256();
    __m256i neg_clipped = max_bits;
    for (int start = 0, c = 0; start < k_depth; start += g, ++c) {
        const int rows = std::min(g, k_depth - start);
        const float *xc = x + start * ldx;
        int32_t *qc = q + start * ldq;
        for (int j0 = 0; j0 < w; j0 += kEncodeColsBlock) {
            const int bw = std::min(kEncodeColsBlock, w - j0);
            const int full = bw / 8;
            const __m256i tail = spanMask(0, 0, bw % 8);
            GroupShifts gs[kSteps]; // a masked step only in a partial block
            for (int s = 0; s < full; ++s)
                gs[s] = encodeColsExponents<R, false>(
                    xc + j0 + 8 * s, ldx, rows, bm, e + c * lde + j0 + 8 * s,
                    all, max_bits);
            if (full * 8 < bw)
                gs[full] = encodeColsExponents<R, true>(
                    xc + j0 + 8 * full, ldx, rows, bm,
                    e + c * lde + j0 + 8 * full, tail, max_bits);
            for (int t = 0; t < rows; ++t) {
                const float *xr = xc + t * ldx + j0;
                int32_t *qr = qc + t * ldq + j0;
                for (int s = 0; s < full; ++s)
                    store8I32<false>(qr + 8 * s,
                                     mantissas8<R>(_mm256_loadu_ps(xr + 8 * s),
                                                   gs[s], hi, neg_clipped),
                                     all);
                if (full * 8 < bw)
                    store8I32<true>(
                        qr + 8 * full,
                        mantissas8<R>(load8F32<true>(xr + 8 * full, tail),
                                      gs[full], hi, neg_clipped),
                        tail);
            }
        }
    }
    GroupEncodeStats st;
    st.max_bits = maxLaneU32(max_bits);
    st.clipped = -sumLanesI32(neg_clipped);
    return st;
}

__attribute__((target("avx2"))) inline GroupEncodeStats
encodeColsF32(const float *x, int64_t ldx, int k_depth, int g, int w, int bm,
              QuantRound mode, int32_t *q, int64_t ldq, int32_t *e,
              int64_t lde)
{
    if (mode == QuantRound::Floor)
        return encodeColsRoundF32<QuantRound::Floor>(x, ldx, k_depth, g, w, bm,
                                                     q, ldq, e, lde);
    return encodeColsRoundF32<QuantRound::HalfAway>(x, ldx, k_depth, g, w, bm,
                                                    q, ldq, e, lde);
}

/** Eight int32 lanes from two four-lane halves. */
__attribute__((target("avx2"))) inline __m256i
join128(__m128i lo, __m128i hi)
{
    return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

/** quantizeStochasticF32: eight columns per vector step, widened to two
 *  four-lane double halves, floor(s) + (u < s - floor(s)) per lane and
 *  narrowed back to int32. */
__attribute__((target("avx2"))) inline int64_t
quantizeStochasticF32(const float *x, int64_t ldx, int rows, int w,
                      const double *scale, bool column_scales,
                      const double *u, int32_t qmin, int32_t qmax, int32_t *q,
                      int64_t ldq)
{
    const __m256i lo = _mm256_set1_epi32(qmin);
    const __m256i hi = _mm256_set1_epi32(qmax);
    const __m256d one = _mm256_set1_pd(1.0);
    __m256i neg_clipped = _mm256_setzero_si256();
    int64_t clipped = 0;
    for (int t = 0; t < rows; ++t) {
        const float *xr = x + static_cast<size_t>(t) * ldx;
        int32_t *qr = q + static_cast<size_t>(t) * ldq;
        const double *ur = u + static_cast<size_t>(t) * w;
        const __m256d row_scale =
            _mm256_set1_pd(column_scales ? 0.0 : scale[t]);
        int j = 0;
        for (; j + 8 <= w; j += 8) {
            const __m256 xv = _mm256_loadu_ps(xr + j);
            const __m256d s0 = _mm256_mul_pd(
                _mm256_cvtps_pd(_mm256_castps256_ps128(xv)),
                column_scales ? _mm256_loadu_pd(scale + j) : row_scale);
            const __m256d s1 = _mm256_mul_pd(
                _mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)),
                column_scales ? _mm256_loadu_pd(scale + j + 4) : row_scale);
            const __m256d f0 = _mm256_floor_pd(s0);
            const __m256d f1 = _mm256_floor_pd(s1);
            const __m256d hit0 = _mm256_cmp_pd(
                _mm256_loadu_pd(ur + j), _mm256_sub_pd(s0, f0), _CMP_LT_OQ);
            const __m256d hit1 = _mm256_cmp_pd(
                _mm256_loadu_pd(ur + j + 4), _mm256_sub_pd(s1, f1), _CMP_LT_OQ);
            const __m256i r = join128(
                _mm256_cvtpd_epi32(_mm256_add_pd(f0, _mm256_and_pd(hit0, one))),
                _mm256_cvtpd_epi32(
                    _mm256_add_pd(f1, _mm256_and_pd(hit1, one))));
            neg_clipped = _mm256_add_epi32(
                neg_clipped, _mm256_or_si256(_mm256_cmpgt_epi32(r, hi),
                                             _mm256_cmpgt_epi32(lo, r)));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(qr + j),
                                _mm256_min_epi32(_mm256_max_epi32(r, lo), hi));
        }
        for (; j < w; ++j)
            qr[j] = scalar::quantizeOne(xr[j],
                                        column_scales ? scale[j] : scale[t],
                                        QuantRound::Stochastic, ur[j], qmin,
                                        qmax, clipped);
    }
    return clipped - sumLanesI32(neg_clipped);
}

/** The 8 x 8 tile at a (row stride lda) transposed into out (row stride
 *  ldo): interleave row pairs, then quads, then swap 128-bit halves. */
__attribute__((target("avx2"))) inline void
transpose8x8F32(const float *a, int64_t lda, float *out, int64_t ldo)
{
    __m256 t[8];
    for (int i = 0; i < 8; i += 2) {
        const __m256 r0 = _mm256_loadu_ps(a + i * lda);
        const __m256 r1 = _mm256_loadu_ps(a + (i + 1) * lda);
        t[i] = _mm256_unpacklo_ps(r0, r1);
        t[i + 1] = _mm256_unpackhi_ps(r0, r1);
    }
    // q[c] holds column c (low half) and column c + 4 (high half) of four
    // rows: rows 0-3 in q[0..3], rows 4-7 in q[4..7].
    __m256 q[8];
    for (int i = 0; i < 8; i += 4) {
        q[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
        q[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
        q[i + 2] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
        q[i + 3] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int c = 0; c < 4; ++c) {
        _mm256_storeu_ps(out + c * ldo,
                         _mm256_permute2f128_ps(q[c], q[c + 4], 0x20));
        _mm256_storeu_ps(out + (c + 4) * ldo,
                         _mm256_permute2f128_ps(q[c], q[c + 4], 0x31));
    }
}

/** 8 x 8 tiles; the last rows % 8 rows and cols % 8 columns move one
 *  element at a time. */
__attribute__((target("avx2"))) inline void
transposeF32(const float *a, int rows, int cols, float *out)
{
    int r = 0;
    for (; r + 8 <= rows; r += 8) {
        const float *ar = a + static_cast<size_t>(r) * cols;
        int c = 0;
        for (; c + 8 <= cols; c += 8)
            transpose8x8F32(ar + c, cols,
                            out + static_cast<size_t>(c) * rows + r, rows);
        for (; c < cols; ++c)
            for (int i = 0; i < 8; ++i)
                out[static_cast<size_t>(c) * rows + r + i] =
                    ar[static_cast<size_t>(i) * cols + c];
    }
    for (; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            out[static_cast<size_t>(c) * rows + r] =
                a[static_cast<size_t>(r) * cols + c];
}

/** Columns ix .. ix + 7 of the row s of width w, +0.0f where a column
 *  lies outside [0, w). Only addresses inside the row are formed: a start
 *  before the row loads from column 0 and moves the lanes up. */
__attribute__((target("avx2"))) inline __m256
rowLoad8(const float *s, int ix, int w)
{
    if (ix >= 0 && ix + 8 <= w)
        return _mm256_loadu_ps(s + ix);
    if (ix >= w || ix + 8 <= 0)
        return _mm256_setzero_ps();
    if (ix >= 0)
        return _mm256_maskload_ps(s + ix, spanMask(ix, 0, w));
    // Lane l takes lane ix + l of the head. A negative ix + l wraps to
    // ix + l + 8 >= ix + 8, and ix + l >= w only where w < ix + 8: both
    // are lanes the masked load left at +0.0f.
    const __m256 head =
        _mm256_maskload_ps(s, spanMask(0, 0, std::min(w, ix + 8)));
    return _mm256_permutevar8x32_ps(
        head, _mm256_add_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                               _mm256_set1_epi32(ix)));
}

/** Each source row shifted by dx, eight output columns per step; rows
 *  outside the plane and columns outside the source row are +0.0f, and
 *  only the last step of a row stores under a mask. */
__attribute__((target("avx2"))) inline void
im2colPlaneF32(const float *x, int h, int w, int dy, int dx, int out_h,
               int out_w, float *dst)
{
    for (int oy = 0; oy < out_h; ++oy) {
        float *d = dst + static_cast<size_t>(oy) * out_w;
        const int iy = oy + dy;
        const bool inside = iy >= 0 && iy < h;
        const float *s = x + static_cast<size_t>(inside ? iy : 0) * w;
        for (int ox = 0; ox < out_w; ox += 8) {
            const __m256 v =
                inside ? rowLoad8(s, ox + dx, w) : _mm256_setzero_ps();
            if (ox + 8 <= out_w)
                _mm256_storeu_ps(d + ox, v);
            else
                _mm256_maskstore_ps(d + ox, spanMask(ox, 0, out_w), v);
        }
    }
}

/** Each in-plane destination row gets the source row shifted by dx added
 *  in, eight columns per step over the output columns [lo, hi) that land
 *  inside it; the last step loads, adds and stores under a mask, so no
 *  other lane is touched. */
__attribute__((target("avx2"))) inline void
col2imPlaneF32(const float *src, int h, int w, int dy, int dx, int out_h,
               int out_w, float *x)
{
    const int lo = std::clamp(-dx, 0, out_w);
    const int hi = std::clamp(w - dx, lo, out_w);
    const int oy_end = std::min(out_h, h - dy);
    for (int oy = std::max(0, -dy); oy < oy_end; ++oy) {
        const float *s = src + static_cast<size_t>(oy) * out_w;
        float *d = x + static_cast<size_t>(oy + dy) * w;
        for (int ox = lo; ox < hi; ox += 8) {
            float *dv = d + (ox + dx);
            if (ox + 8 <= hi) {
                _mm256_storeu_ps(dv, _mm256_add_ps(_mm256_loadu_ps(dv),
                                                   _mm256_loadu_ps(s + ox)));
                continue;
            }
            const __m256i m = spanMask(ox, 0, hi);
            _mm256_maskstore_ps(dv, m,
                                _mm256_add_ps(_mm256_maskload_ps(dv, m),
                                              _mm256_maskload_ps(s + ox, m)));
        }
    }
}

} // namespace avx2

#endif // MIRAGE_SIMD_AVX2

// ---------------------------------------------------------------------------
// NEON bodies (aarch64 baseline — no runtime check needed).
// ---------------------------------------------------------------------------

#if defined(MIRAGE_SIMD_NEON)

namespace neon {

inline int64_t
dotI32I64(const int32_t *a, const int32_t *b, int n)
{
    int64x2_t acc = vdupq_n_s64(0);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const int32x4_t av = vld1q_s32(a + i);
        const int32x4_t bv = vld1q_s32(b + i);
        acc = vaddq_s64(acc, vmull_s32(vget_low_s32(av), vget_low_s32(bv)));
        acc = vaddq_s64(acc, vmull_high_s32(av, bv));
    }
    int64_t sum = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
    for (; i < n; ++i)
        sum += static_cast<int64_t>(a[i]) * b[i];
    return sum;
}

inline uint64_t
dotU64Lo32(const uint64_t *a, const uint64_t *b, int n)
{
    // Narrow each 64-bit residue to 32 bits (exact: values < 2^32), then
    // widen-multiply back to 64.
    uint64_t sum = 0;
    int i = 0;
    uint64x2_t acc = vdupq_n_u64(0);
    for (; i + 2 <= n; i += 2) {
        const uint32x2_t av = vmovn_u64(vld1q_u64(a + i));
        const uint32x2_t bv = vmovn_u64(vld1q_u64(b + i));
        acc = vaddq_u64(acc, vmull_u32(av, bv));
    }
    sum = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

inline void
axpyF32(float a, const float *b, float *r, int n)
{
    const float32x4_t av = vdupq_n_f32(a);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        // vaddq + vmulq (not vfmaq): one multiply rounding + one add
        // rounding, matching the scalar reference exactly.
        vst1q_f32(r + j,
                  vaddq_f32(vld1q_f32(r + j), vmulq_f32(av, vld1q_f32(b + j))));
    }
    for (; j < n; ++j)
        r[j] += a * b[j];
}

inline void
axpy4F32(float a0, float a1, float a2, float a3, const float *b, float *r0,
         float *r1, float *r2, float *r3, int n)
{
    const float32x4_t a0v = vdupq_n_f32(a0);
    const float32x4_t a1v = vdupq_n_f32(a1);
    const float32x4_t a2v = vdupq_n_f32(a2);
    const float32x4_t a3v = vdupq_n_f32(a3);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const float32x4_t bv = vld1q_f32(b + j);
        vst1q_f32(r0 + j, vaddq_f32(vld1q_f32(r0 + j), vmulq_f32(a0v, bv)));
        vst1q_f32(r1 + j, vaddq_f32(vld1q_f32(r1 + j), vmulq_f32(a1v, bv)));
        vst1q_f32(r2 + j, vaddq_f32(vld1q_f32(r2 + j), vmulq_f32(a2v, bv)));
        vst1q_f32(r3 + j, vaddq_f32(vld1q_f32(r3 + j), vmulq_f32(a3v, bv)));
    }
    for (; j < n; ++j) {
        const float bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

inline void
axpyI32I64(int32_t a, const int32_t *b, int64_t *r, int n)
{
    const int32x2_t av = vdup_n_s32(a);
    int j = 0;
    for (; j + 2 <= n; j += 2) {
        const int32x2_t bv = vld1_s32(b + j);
        vst1q_s64(r + j, vaddq_s64(vld1q_s64(r + j), vmull_s32(av, bv)));
    }
    for (; j < n; ++j)
        r[j] += static_cast<int64_t>(a) * b[j];
}

inline void
axpy4I32I64(int32_t a0, int32_t a1, int32_t a2, int32_t a3, const int32_t *b,
            int64_t *r0, int64_t *r1, int64_t *r2, int64_t *r3, int n)
{
    for (int j = 0; j < n; ++j) {
        const int64_t bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

inline void
axpyU64Lo32(uint64_t a, const uint64_t *b, uint64_t *r, int n)
{
    const uint32x2_t av = vdup_n_u32(static_cast<uint32_t>(a));
    int j = 0;
    for (; j + 2 <= n; j += 2) {
        const uint32x2_t bv = vmovn_u64(vld1q_u64(b + j));
        vst1q_u64(r + j, vaddq_u64(vld1q_u64(r + j), vmull_u32(av, bv)));
    }
    for (; j < n; ++j)
        r[j] += a * b[j];
}

inline void
axpy4U64Lo32(uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3,
             const uint64_t *b, uint64_t *r0, uint64_t *r1, uint64_t *r2,
             uint64_t *r3, int n)
{
    const uint32x2_t a0v = vdup_n_u32(static_cast<uint32_t>(a0));
    const uint32x2_t a1v = vdup_n_u32(static_cast<uint32_t>(a1));
    const uint32x2_t a2v = vdup_n_u32(static_cast<uint32_t>(a2));
    const uint32x2_t a3v = vdup_n_u32(static_cast<uint32_t>(a3));
    int j = 0;
    for (; j + 2 <= n; j += 2) {
        const uint32x2_t bv = vmovn_u64(vld1q_u64(b + j));
        vst1q_u64(r0 + j, vaddq_u64(vld1q_u64(r0 + j), vmull_u32(a0v, bv)));
        vst1q_u64(r1 + j, vaddq_u64(vld1q_u64(r1 + j), vmull_u32(a1v, bv)));
        vst1q_u64(r2 + j, vaddq_u64(vld1q_u64(r2 + j), vmull_u32(a2v, bv)));
        vst1q_u64(r3 + j, vaddq_u64(vld1q_u64(r3 + j), vmull_u32(a3v, bv)));
    }
    for (; j < n; ++j) {
        const uint64_t bv = b[j];
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

/** Register-tiled FP32 panel (see the avx2 twin for the rationale):
 *  8-column tiles, 4 rows x 2 q-regs held across the k loop. vmul + vadd,
 *  never vfma, to stay bit-identical to the scalar reference. */
inline void
gemmPanel4F32(const float *a, int64_t lda, const float *b, int64_t ldb,
              int kd, float *acc, int jt)
{
    int j = 0;
    for (; j + 8 <= jt; j += 8) {
        float32x4_t c[4][2];
        for (int r = 0; r < 4; ++r) {
            c[r][0] = vld1q_f32(acc + static_cast<size_t>(r) * jt + j);
            c[r][1] = vld1q_f32(acc + static_cast<size_t>(r) * jt + j + 4);
        }
        for (int k = 0; k < kd; ++k) {
            const float *b_row = b + static_cast<size_t>(k) * ldb + j;
            const float32x4_t b0 = vld1q_f32(b_row);
            const float32x4_t b1 = vld1q_f32(b_row + 4);
            for (int r = 0; r < 4; ++r) {
                const float ar = a[static_cast<size_t>(r) * lda + k];
                if (ar == 0.0f)
                    continue;
                const float32x4_t av = vdupq_n_f32(ar);
                c[r][0] = vaddq_f32(c[r][0], vmulq_f32(av, b0));
                c[r][1] = vaddq_f32(c[r][1], vmulq_f32(av, b1));
            }
        }
        for (int r = 0; r < 4; ++r) {
            vst1q_f32(acc + static_cast<size_t>(r) * jt + j, c[r][0]);
            vst1q_f32(acc + static_cast<size_t>(r) * jt + j + 4, c[r][1]);
        }
    }
    if (j < jt) {
        for (int k = 0; k < kd; ++k) {
            const float *b_row = b + static_cast<size_t>(k) * ldb;
            for (int r = 0; r < 4; ++r) {
                const float ar = a[static_cast<size_t>(r) * lda + k];
                if (ar == 0.0f)
                    continue;
                float *row = acc + static_cast<size_t>(r) * jt;
                for (int jj = j; jj < jt; ++jj)
                    row[jj] += ar * b_row[jj];
            }
        }
    }
}

inline void
gemmPanel4I32I64(const int32_t *a, int64_t lda, const int32_t *b, int64_t ldb,
                 int kd, int64_t *acc, int jt)
{
    scalar::gemmPanel4I32I64(a, lda, b, ldb, kd, acc, jt);
}

inline void
gemmPanel4U64Lo32(const uint64_t *a, int64_t lda, const uint64_t *b,
                  int64_t ldb, int kd, uint64_t *acc, int jt)
{
    scalar::gemmPanel4U64Lo32(a, lda, b, ldb, kd, acc, jt);
}

inline void
bfpPanel4(const int16_t *a, int64_t lda, const int32_t *ea, const int32_t *b,
          const int32_t *eb, int kd, int g, int n, int bm, float *out,
          int64_t ldo, int rows)
{
    scalar::bfpPanel4(a, lda, ea, b, eb, kd, g, n, bm, out, ldo, rows);
}

inline uint32_t
maxAbsBitsF32(const float *x, int n)
{
    return scalar::maxAbsBitsF32(x, n);
}

inline void
maxAbsBitsColsF32(const float *x, int64_t ldx, int rows, int w, uint32_t *m)
{
    scalar::maxAbsBitsColsF32(x, ldx, rows, w, m);
}

template <typename Q>
inline GroupEncodeStats
encodeRowF32(const float *x, int n, int g, int bm, QuantRound mode, Q *q,
             int32_t *e)
{
    return scalar::encodeRowF32(x, n, g, bm, mode, q, e);
}

inline GroupEncodeStats
encodeColsF32(const float *x, int64_t ldx, int k_depth, int g, int w, int bm,
              QuantRound mode, int32_t *q, int64_t ldq, int32_t *e,
              int64_t lde)
{
    return scalar::encodeColsF32(x, ldx, k_depth, g, w, bm, mode, q, ldq, e,
                                 lde);
}

inline int64_t
quantizeStochasticF32(const float *x, int64_t ldx, int rows, int w,
                      const double *scale, bool column_scales,
                      const double *u, int32_t qmin, int32_t qmax, int32_t *q,
                      int64_t ldq)
{
    return scalar::quantizeStochasticF32(x, ldx, rows, w, scale, column_scales,
                                         u, qmin, qmax, q, ldq);
}

inline void
transposeF32(const float *a, int rows, int cols, float *out)
{
    scalar::transposeF32(a, rows, cols, out);
}

inline void
im2colPlaneF32(const float *x, int h, int w, int dy, int dx, int out_h,
               int out_w, float *dst)
{
    scalar::im2colPlaneF32(x, h, w, dy, dx, out_h, out_w, dst);
}

inline void
col2imPlaneF32(const float *src, int h, int w, int dy, int dx, int out_h,
               int out_w, float *x)
{
    scalar::col2imPlaneF32(src, h, w, dy, dx, out_h, out_w, x);
}

} // namespace neon

#endif // MIRAGE_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace detail {

/** True when the vector backend should be used (CPU supports it and
 *  MIRAGE_SIMD does not force scalar). Decided once per process. */
inline bool
vectorEnabled()
{
    static const bool enabled = [] {
        if (const char *env = std::getenv("MIRAGE_SIMD")) {
            if (std::strcmp(env, "0") == 0 ||
                std::strcmp(env, "scalar") == 0 ||
                std::strcmp(env, "off") == 0)
                return false;
        }
#if defined(MIRAGE_SIMD_AVX2)
        return static_cast<bool>(__builtin_cpu_supports("avx2"));
#elif defined(MIRAGE_SIMD_NEON)
        return true;
#else
        return false;
#endif
    }();
    return enabled;
}

} // namespace detail

/** Name of the active backend: "avx2", "neon", or "scalar". */
inline const char *
backendName()
{
#if defined(MIRAGE_SIMD_AVX2)
    if (detail::vectorEnabled())
        return "avx2";
#elif defined(MIRAGE_SIMD_NEON)
    if (detail::vectorEnabled())
        return "neon";
#endif
    return "scalar";
}

#if defined(MIRAGE_SIMD_AVX2)
#define MIRAGE_SIMD_DISPATCH(fn, ...) \
    do { \
        if (detail::vectorEnabled()) \
            return avx2::fn(__VA_ARGS__); \
        return scalar::fn(__VA_ARGS__); \
    } while (false)
#elif defined(MIRAGE_SIMD_NEON)
#define MIRAGE_SIMD_DISPATCH(fn, ...) \
    do { \
        if (detail::vectorEnabled()) \
            return neon::fn(__VA_ARGS__); \
        return scalar::fn(__VA_ARGS__); \
    } while (false)
#else
#define MIRAGE_SIMD_DISPATCH(fn, ...) \
    do { \
        return scalar::fn(__VA_ARGS__); \
    } while (false)
#endif

inline int64_t
dotI32I64(const int32_t *a, const int32_t *b, int n)
{
    MIRAGE_SIMD_DISPATCH(dotI32I64, a, b, n);
}

inline uint64_t
dotU64Lo32(const uint64_t *a, const uint64_t *b, int n)
{
    MIRAGE_SIMD_DISPATCH(dotU64Lo32, a, b, n);
}

inline void
axpyF32(float a, const float *b, float *r, int n)
{
    MIRAGE_SIMD_DISPATCH(axpyF32, a, b, r, n);
}

inline void
axpy4F32(float a0, float a1, float a2, float a3, const float *b, float *r0,
         float *r1, float *r2, float *r3, int n)
{
    MIRAGE_SIMD_DISPATCH(axpy4F32, a0, a1, a2, a3, b, r0, r1, r2, r3, n);
}

inline void
axpyI32I64(int32_t a, const int32_t *b, int64_t *r, int n)
{
    MIRAGE_SIMD_DISPATCH(axpyI32I64, a, b, r, n);
}

inline void
axpy4I32I64(int32_t a0, int32_t a1, int32_t a2, int32_t a3, const int32_t *b,
            int64_t *r0, int64_t *r1, int64_t *r2, int64_t *r3, int n)
{
    MIRAGE_SIMD_DISPATCH(axpy4I32I64, a0, a1, a2, a3, b, r0, r1, r2, r3, n);
}

inline void
axpyU64Lo32(uint64_t a, const uint64_t *b, uint64_t *r, int n)
{
    MIRAGE_SIMD_DISPATCH(axpyU64Lo32, a, b, r, n);
}

inline void
axpy4U64Lo32(uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3,
             const uint64_t *b, uint64_t *r0, uint64_t *r1, uint64_t *r2,
             uint64_t *r3, int n)
{
    MIRAGE_SIMD_DISPATCH(axpy4U64Lo32, a0, a1, a2, a3, b, r0, r1, r2, r3, n);
}

inline void
gemmPanel4F32(const float *a, int64_t lda, const float *b, int64_t ldb,
              int kd, float *acc, int jt)
{
    MIRAGE_SIMD_DISPATCH(gemmPanel4F32, a, lda, b, ldb, kd, acc, jt);
}

inline void
gemmPanel4I32I64(const int32_t *a, int64_t lda, const int32_t *b, int64_t ldb,
                 int kd, int64_t *acc, int jt)
{
    MIRAGE_SIMD_DISPATCH(gemmPanel4I32I64, a, lda, b, ldb, kd, acc, jt);
}

inline void
gemmPanel4U64Lo32(const uint64_t *a, int64_t lda, const uint64_t *b,
                  int64_t ldb, int kd, uint64_t *acc, int jt)
{
    MIRAGE_SIMD_DISPATCH(gemmPanel4U64Lo32, a, lda, b, ldb, kd, acc, jt);
}

/** Dispatched scalar::bfpPanel4. The vector bodies need every partial
 *  chunk dot to fit int32, g 2^(2 bm) <= 2^31 - 1; past that bound the
 *  reference runs. */
inline void
bfpPanel4(const int16_t *a, int64_t lda, const int32_t *ea, const int32_t *b,
          const int32_t *eb, int kd, int g, int n, int bm, float *out,
          int64_t ldo, int rows)
{
    if ((int64_t{g} << (2 * bm)) > INT32_MAX)
        return scalar::bfpPanel4(a, lda, ea, b, eb, kd, g, n, bm, out, ldo,
                                 rows);
    MIRAGE_SIMD_DISPATCH(bfpPanel4, a, lda, ea, b, eb, kd, g, n, bm, out, ldo,
                         rows);
}

inline uint32_t
maxAbsBitsF32(const float *x, int n)
{
    MIRAGE_SIMD_DISPATCH(maxAbsBitsF32, x, n);
}

inline void
maxAbsBitsColsF32(const float *x, int64_t ldx, int rows, int w, uint32_t *m)
{
    MIRAGE_SIMD_DISPATCH(maxAbsBitsColsF32, x, ldx, rows, w, m);
}

/** Dispatched scalar::encodeRowF32 (mode Floor or HalfAway). */
template <typename Q>
inline GroupEncodeStats
encodeRowF32(const float *x, int n, int g, int bm, QuantRound mode, Q *q,
             int32_t *e)
{
    MIRAGE_SIMD_DISPATCH(encodeRowF32<Q>, x, n, g, bm, mode, q, e);
}

/** Dispatched scalar::encodeColsF32 (mode Floor or HalfAway). */
inline GroupEncodeStats
encodeColsF32(const float *x, int64_t ldx, int k_depth, int g, int w, int bm,
              QuantRound mode, int32_t *q, int64_t ldq, int32_t *e,
              int64_t lde)
{
    MIRAGE_SIMD_DISPATCH(encodeColsF32, x, ldx, k_depth, g, w, bm, mode, q,
                         ldq, e, lde);
}

inline int64_t
quantizeStochasticF32(const float *x, int64_t ldx, int rows, int w,
                      const double *scale, bool column_scales,
                      const double *u, int32_t qmin, int32_t qmax, int32_t *q,
                      int64_t ldq)
{
    MIRAGE_SIMD_DISPATCH(quantizeStochasticF32, x, ldx, rows, w, scale,
                         column_scales, u, qmin, qmax, q, ldq);
}

inline void
transposeF32(const float *a, int rows, int cols, float *out)
{
    MIRAGE_SIMD_DISPATCH(transposeF32, a, rows, cols, out);
}

inline void
im2colPlaneF32(const float *x, int h, int w, int dy, int dx, int out_h,
               int out_w, float *dst)
{
    MIRAGE_SIMD_DISPATCH(im2colPlaneF32, x, h, w, dy, dx, out_h, out_w, dst);
}

inline void
col2imPlaneF32(const float *src, int h, int w, int dy, int dx, int out_h,
               int out_w, float *x)
{
    MIRAGE_SIMD_DISPATCH(col2imPlaneF32, src, h, w, dy, dx, out_h, out_w, x);
}

#undef MIRAGE_SIMD_DISPATCH

} // namespace simd
} // namespace mirage

#endif // MIRAGE_COMMON_SIMD_H
