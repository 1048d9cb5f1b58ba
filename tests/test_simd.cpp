/**
 * @file
 * Bit-equality tests for the simd dispatch layer (common/simd.h): every
 * vectorized dot / axpy / panel kernel must return results byte-identical
 * to its scalar reference — integer ops because they are exact, FP32 ops
 * because the vector bodies perform the same multiply-then-add roundings
 * in the same per-element order (no FMA contraction). This is the
 * invariant that lets the SIMD kernels keep both the thread-count
 * determinism contract and every committed golden value.
 *
 * On hosts without AVX2/NEON the wrappers dispatch to the scalar reference
 * and these tests pass trivially; on vector hardware they pin the real
 * vector bodies, including ragged column tails, the FP32/integer panels'
 * per-row zero skip, the fused BFP panel's ragged chunks, masked column
 * tail, int32 lanes at their bound and float epilogue, the one-pass BFP
 * encoders' masked steps and subnormal left shifts (checked against the
 * per-element definition), and the layer kernels' edge tiles and masked
 * row shifts.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/simd.h"
#include "test_support.h"

namespace {

using namespace mirage;

/** Byte equality of two float vectors (empty ones never reach memcmp,
 *  whose pointer arguments must not be null). */
bool
sameBytes(const std::vector<float> &x, const std::vector<float> &y)
{
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

class SimdTest : public mirage::test::SeededTest
{
  protected:
    std::vector<float>
    floats(size_t n)
    {
        std::vector<float> v(n);
        for (auto &x : v) {
            x = static_cast<float>(rng.gaussian(0, 1));
            const double u = rng.uniformReal();
            if (u < 0.1)
                x = 0.0f;
            else if (u < 0.15)
                x = -0.0f;
        }
        return v;
    }

    std::vector<int32_t>
    ints(size_t n, int32_t lo, int32_t hi)
    {
        std::vector<int32_t> v(n);
        for (auto &x : v)
            x = static_cast<int32_t>(
                lo + static_cast<int64_t>(rng.uniformReal() * (hi - lo + 1)));
        return v;
    }

    /** uint64 values that fit in 32 bits (RNS residues). */
    std::vector<uint64_t>
    residues(size_t n, uint64_t modulus)
    {
        std::vector<uint64_t> v(n);
        for (auto &x : v) {
            x = static_cast<uint64_t>(rng.uniformReal() * modulus) % modulus;
            if (rng.uniformReal() < 0.1)
                x = 0;
        }
        return v;
    }
};

TEST_F(SimdTest, BackendNameIsKnown)
{
    const std::string name = simd::backendName();
    EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar")
        << name;
}

TEST_F(SimdTest, DotsMatchScalarReference)
{
    for (int n : {0, 1, 2, 3, 7, 8, 15, 16, 17, 31, 40, 67}) {
        const auto ai = ints(static_cast<size_t>(n), -4000, 4000);
        const auto bi = ints(static_cast<size_t>(n), -4000, 4000);
        EXPECT_EQ(simd::dotI32I64(ai.data(), bi.data(), n),
                  simd::scalar::dotI32I64(ai.data(), bi.data(), n))
            << "n=" << n;

        const auto ar = residues(static_cast<size_t>(n), (1u << 21) - 9);
        const auto br = residues(static_cast<size_t>(n), (1u << 21) - 9);
        EXPECT_EQ(simd::dotU64Lo32(ar.data(), br.data(), n),
                  simd::scalar::dotU64Lo32(ar.data(), br.data(), n))
            << "n=" << n;
    }
}

TEST_F(SimdTest, AxpysMatchScalarReferenceBitExact)
{
    for (int n : {0, 1, 3, 7, 8, 9, 16, 23, 40}) {
        const auto b = floats(static_cast<size_t>(n));
        for (float a : {1.5f, 0.0f, -0.0f, -2.25e-7f}) {
            auto r_vec = floats(static_cast<size_t>(n));
            auto r_ref = r_vec;
            simd::axpyF32(a, b.data(), r_vec.data(), n);
            simd::scalar::axpyF32(a, b.data(), r_ref.data(), n);
            EXPECT_TRUE(sameBytes(r_vec, r_ref)) << "n=" << n << " a=" << a;
        }

        auto r0 = floats(static_cast<size_t>(n)), r1 = r0, r2 = r0, r3 = r0;
        auto s0 = r0, s1 = r1, s2 = r2, s3 = r3;
        simd::axpy4F32(0.5f, -0.0f, 3.0f, 1e-30f, b.data(), r0.data(),
                       r1.data(), r2.data(), r3.data(), n);
        simd::scalar::axpy4F32(0.5f, -0.0f, 3.0f, 1e-30f, b.data(), s0.data(),
                               s1.data(), s2.data(), s3.data(), n);
        for (auto [v, s] : {std::pair{&r0, &s0}, {&r1, &s1}, {&r2, &s2},
                            {&r3, &s3}})
            EXPECT_TRUE(sameBytes(*v, *s)) << "n=" << n;

        const auto bi = ints(static_cast<size_t>(n), -100000, 100000);
        std::vector<int64_t> iv(static_cast<size_t>(n), 7), ir = iv;
        simd::axpyI32I64(-12345, bi.data(), iv.data(), n);
        simd::scalar::axpyI32I64(-12345, bi.data(), ir.data(), n);
        EXPECT_EQ(iv, ir) << "n=" << n;

        const auto br = residues(static_cast<size_t>(n), 0xFFFFFFF1u);
        std::vector<uint64_t> uv(static_cast<size_t>(n), 3), ur = uv;
        simd::axpyU64Lo32(0x12345678u, br.data(), uv.data(), n);
        simd::scalar::axpyU64Lo32(0x12345678u, br.data(), ur.data(), n);
        EXPECT_EQ(uv, ur) << "n=" << n;
    }
}

TEST_F(SimdTest, Fp32PanelKernelMatchesScalarReferenceBitExact)
{
    for (int kd : {0, 1, 3, 17, 64}) {
        for (int jt : {1, 5, 8, 16, 23, 32}) {
            const int64_t lda = kd + 2, ldb = jt + 3;
            auto a = floats(static_cast<size_t>(4) * lda);
            const auto b = floats(static_cast<size_t>(std::max(kd, 1)) * ldb);
            if (kd > 0) // a whole zero row exercises the row skip
                for (int k = 0; k < kd; ++k)
                    a[static_cast<size_t>(2) * lda + k] = 0.0f;
            auto acc_vec = floats(static_cast<size_t>(4) * jt);
            auto acc_ref = acc_vec; // nonzero start pins accumulate-into
            simd::gemmPanel4F32(a.data(), lda, b.data(), ldb, kd,
                                acc_vec.data(), jt);
            simd::scalar::gemmPanel4F32(a.data(), lda, b.data(), ldb, kd,
                                        acc_ref.data(), jt);
            EXPECT_TRUE(sameBytes(acc_vec, acc_ref))
                << "kd=" << kd << " jt=" << jt;
        }
    }
}

TEST_F(SimdTest, IntegerPanelKernelsMatchScalarReference)
{
    for (int kd : {0, 1, 5, 33}) {
        for (int jt : {1, 4, 8, 13, 24}) {
            const int64_t lda = kd + 1, ldb = jt + 2;
            auto ai = ints(static_cast<size_t>(4) * lda, -2000, 2000);
            const auto bi =
                ints(static_cast<size_t>(std::max(kd, 1)) * ldb, -2000, 2000);
            if (kd > 0)
                for (int k = 0; k < kd; ++k)
                    ai[static_cast<size_t>(1) * lda + k] = 0;
            std::vector<int64_t> acc_vec(static_cast<size_t>(4) * jt, 11);
            auto acc_ref = acc_vec;
            simd::gemmPanel4I32I64(ai.data(), lda, bi.data(), ldb, kd,
                                   acc_vec.data(), jt);
            simd::scalar::gemmPanel4I32I64(ai.data(), lda, bi.data(), ldb, kd,
                                           acc_ref.data(), jt);
            EXPECT_EQ(acc_vec, acc_ref) << "kd=" << kd << " jt=" << jt;

            const auto au =
                residues(static_cast<size_t>(4) * lda, (1u << 21) - 9);
            const auto bu = residues(
                static_cast<size_t>(std::max(kd, 1)) * ldb, (1u << 21) - 9);
            std::vector<uint64_t> uacc_vec(static_cast<size_t>(4) * jt, 5);
            auto uacc_ref = uacc_vec;
            simd::gemmPanel4U64Lo32(au.data(), lda, bu.data(), ldb, kd,
                                    uacc_vec.data(), jt);
            simd::scalar::gemmPanel4U64Lo32(au.data(), lda, bu.data(), ldb,
                                            kd, uacc_ref.data(), jt);
            EXPECT_EQ(uacc_vec, uacc_ref) << "kd=" << kd << " jt=" << jt;
        }
    }
}

TEST_F(SimdTest, BfpEncodeKernelsMatchScalarReference)
{
    // Float inputs spanning the encoder's edge cases: +-0, subnormals,
    // values near FLT_MAX, and (for the max kernels) Inf and NaN.
    const auto edgeFloats = [&](size_t n, bool non_finite) {
        std::vector<float> v(n);
        for (auto &x : v) {
            const double u = rng.uniformReal();
            const double gv = rng.gaussian();
            x = u < 0.1    ? 0.0f
                : u < 0.2  ? -0.0f
                : u < 0.35 ? static_cast<float>(gv * 1e-41)
                : u < 0.45 ? static_cast<float>(gv * 1e37)
                           : static_cast<float>(gv);
            if (non_finite && u > 0.97)
                x = u > 0.985 ? std::numeric_limits<float>::infinity()
                              : -std::numeric_limits<float>::quiet_NaN();
        }
        return v;
    };
    for (int n : {0, 1, 7, 8, 9, 13, 16, 31, 32, 40}) {
        for (const bool non_finite : {false, true}) {
            const auto x = edgeFloats(static_cast<size_t>(n), non_finite);
            EXPECT_EQ(simd::maxAbsBitsF32(x.data(), n),
                      simd::scalar::maxAbsBitsF32(x.data(), n))
                << "n=" << n;
        }
    }
    for (int rows : {1, 5, 16}) {
        for (int w : {1, 7, 8, 9, 21}) {
            const int64_t ldx = w + 3;
            const auto x = edgeFloats(static_cast<size_t>(rows) * ldx, true);
            std::vector<uint32_t> m_vec(static_cast<size_t>(w), 7);
            std::vector<uint32_t> m_ref(static_cast<size_t>(w), 9);
            simd::maxAbsBitsColsF32(x.data(), ldx, rows, w, m_vec.data());
            simd::scalar::maxAbsBitsColsF32(x.data(), ldx, rows, w,
                                            m_ref.data());
            EXPECT_EQ(m_vec, m_ref) << "rows=" << rows << " w=" << w;
        }
    }

    // Stochastic quantizer: power-of-two scales per column or per row, wide
    // enough to clip at both ends of [-16, 15], ragged column tails.
    for (const bool column_scales : {true, false}) {
        for (int rows : {1, 3}) {
            for (int w : {1, 7, 8, 9, 21}) {
                const int64_t ldx = w + 1, ldq = w + 2;
                // Finite scaled values only: clamp the near-FLT_MAX inputs.
                auto x = edgeFloats(static_cast<size_t>(rows) * ldx, false);
                for (auto &v : x)
                    if (std::fabs(v) > 1e6f)
                        v = std::copysign(7.75f, v);
                std::vector<double> scale(
                    static_cast<size_t>(std::max(rows, w)));
                for (size_t i = 0; i < scale.size(); ++i)
                    scale[i] = std::ldexp(1.0, static_cast<int>(i % 6) - 1);
                std::vector<double> u(static_cast<size_t>(rows) * w);
                for (auto &v : u)
                    v = rng.uniformReal();
                std::vector<int32_t> q_vec(static_cast<size_t>(rows) * ldq,
                                           -99);
                auto q_ref = q_vec;
                const int64_t c_vec = simd::quantizeStochasticF32(
                    x.data(), ldx, rows, w, scale.data(), column_scales,
                    u.data(), -16, 15, q_vec.data(), ldq);
                const int64_t c_ref = simd::scalar::quantizeStochasticF32(
                    x.data(), ldx, rows, w, scale.data(), column_scales,
                    u.data(), -16, 15, q_ref.data(), ldq);
                const std::string where =
                    "columns=" + std::to_string(column_scales) +
                    " rows=" + std::to_string(rows) +
                    " w=" + std::to_string(w);
                EXPECT_EQ(q_vec, q_ref) << where;
                EXPECT_EQ(c_vec, c_ref) << where;
            }
        }
    }
}

/**
 * The per-element definition of one BFP group that the one-pass encoders
 * must reproduce: the shared exponent from the group's largest magnitude
 * bits, then each mantissa from the double quantizer.
 */
struct GroupDefinition
{
    int32_t exponent = 0;
    std::vector<int32_t> mantissas;
    int64_t clipped = 0;
};

GroupDefinition
defineGroup(const std::vector<float> &values, int bm, simd::QuantRound mode)
{
    GroupDefinition d;
    d.exponent = simd::groupExponent(simd::scalar::maxAbsBitsF32(
        values.data(), static_cast<int>(values.size())));
    const double scale = std::ldexp(1.0, bm - d.exponent);
    for (const float v : values)
        d.mantissas.push_back(simd::scalar::quantizeOne(
            v, scale, mode, 0.0, -(1 << bm), (1 << bm) - 1, d.clipped));
    return d;
}

/** What the encoder tests covered, so a generator change cannot silently
 *  drop an edge case. */
struct EncodeCoverage
{
    int ties = 0;        ///< Scaled values exactly halfway between integers.
    int left_shift = 0;  ///< Subnormal-max groups of bit width below bm.
    int huge = 0;        ///< Groups near FLT_MAX (shared exponent 128).
    int zero_groups = 0; ///< All-zero groups (+-0).
    int64_t clipped = 0;

    void
    note(const std::vector<float> &values, int bm, const GroupDefinition &d)
    {
        const uint32_t m = simd::scalar::maxAbsBitsF32(
            values.data(), static_cast<int>(values.size()));
        zero_groups += m == 0;
        huge += d.exponent == 128;
        left_shift += m != 0 && m < (1u << 23) &&
                      static_cast<int>(std::bit_width(m)) < bm;
        for (const float v : values) {
            const double s = std::ldexp(static_cast<double>(v), bm - d.exponent);
            ties += s - std::floor(s) == 0.5;
        }
        clipped += d.clipped;
    }
};

class BfpEncodeTest : public SimdTest
{
  protected:
    /**
     * One group's values, of a random kind: odd multiples of half a
     * mantissa step (ties) with one value that rounds up to 2^bm, a
     * subnormal-max group whose bit width is below bm, +-0, values near
     * FLT_MAX, subnormals among tiny normals, or ordinary values.
     */
    std::vector<float>
    groupValues(int len, int bm)
    {
        std::vector<float> v(static_cast<size_t>(len));
        const double kind = rng.uniformReal();
        const auto sign = [&] { return rng.uniformReal() < 0.5 ? -1.0f : 1.0f; };
        if (kind < 0.2) {
            const int e = static_cast<int>(rng.uniformReal() * 200) - 100;
            const int top = (1 << (bm + 1)) - 1; // (2^bm - 1/2) 2^(e - bm)
            for (auto &x : v)
                x = std::ldexp(static_cast<float>(ints(1, -top, top)[0]),
                               e - bm - 1);
            v[static_cast<size_t>(rng.uniformReal() * len)] =
                sign() * std::ldexp(static_cast<float>(top), e - bm - 1);
        } else if (kind < 0.35) {
            const uint32_t below = 1u << std::max(bm - 1, 0);
            for (auto &x : v)
                x = sign() * std::bit_cast<float>(static_cast<uint32_t>(
                                 rng.uniformReal() * below));
        } else if (kind < 0.45) {
            for (auto &x : v)
                x = sign() * 0.0f;
        } else if (kind < 0.55) {
            for (auto &x : v)
                x = static_cast<float>(FLT_MAX * (2 * rng.uniformReal() - 1));
        } else if (kind < 0.7) {
            for (auto &x : v)
                x = static_cast<float>(rng.gaussian() * 1e-39);
        } else {
            for (auto &x : v)
                x = static_cast<float>(
                    rng.gaussian() *
                    std::ldexp(1.0, static_cast<int>(rng.uniformReal() * 40) -
                                        20));
        }
        return v;
    }
};

constexpr std::array<int, 4> kEncodeBm = {1, 4, 13, 15};
constexpr std::array<int, 5> kEncodeG = {1, 2, 7, 16, 31};
constexpr std::array<simd::QuantRound, 2> kEncodeModes = {
    simd::QuantRound::Floor, simd::QuantRound::HalfAway};

TEST_F(BfpEncodeTest, RowEncoderMatchesPerElementDefinition)
{
    // Rows of ragged length; int32 and int16 mantissas from the dispatched
    // kernel, int32 from the scalar reference. Operands are exactly sized
    // and outputs sentinel-filled, so a sanitizer build catches any lane
    // read or written past the row.
    EncodeCoverage cov;
    for (const int bm : kEncodeBm) {
        for (const int g : kEncodeG) {
            for (const simd::QuantRound mode : kEncodeModes) {
                for (const int n : {1, 4, 5, 9, 16, 17, 33, 71}) {
                    const int groups = (n + g - 1) / g;
                    std::vector<float> x;
                    std::vector<int32_t> want_q, want_e;
                    int64_t want_clipped = 0;
                    for (int start = 0; start < n; start += g) {
                        const auto vals = groupValues(std::min(g, n - start), bm);
                        const GroupDefinition d = defineGroup(vals, bm, mode);
                        cov.note(vals, bm, d);
                        x.insert(x.end(), vals.begin(), vals.end());
                        want_q.insert(want_q.end(), d.mantissas.begin(),
                                      d.mantissas.end());
                        want_e.push_back(d.exponent);
                        want_clipped += d.clipped;
                    }
                    const std::string where =
                        "bm=" + std::to_string(bm) + " g=" + std::to_string(g) +
                        " mode=" + std::to_string(static_cast<int>(mode)) +
                        " n=" + std::to_string(n);
                    std::vector<int32_t> q32(static_cast<size_t>(n), -77777);
                    std::vector<int16_t> q16(static_cast<size_t>(n), -7777);
                    std::vector<int32_t> ref32(static_cast<size_t>(n), -77777);
                    std::vector<int32_t> e32(static_cast<size_t>(groups), 999);
                    std::vector<int32_t> e16 = e32, eref = e32;
                    const simd::GroupEncodeStats s32 = simd::encodeRowF32(
                        x.data(), n, g, bm, mode, q32.data(), e32.data());
                    const simd::GroupEncodeStats s16 = simd::encodeRowF32(
                        x.data(), n, g, bm, mode, q16.data(), e16.data());
                    const simd::GroupEncodeStats sref =
                        simd::scalar::encodeRowF32(x.data(), n, g, bm, mode,
                                                   ref32.data(), eref.data());
                    const std::vector<int32_t> q16_wide(q16.begin(), q16.end());
                    EXPECT_EQ(q32, want_q) << where;
                    EXPECT_EQ(q16_wide, want_q) << where;
                    EXPECT_EQ(ref32, want_q) << where;
                    EXPECT_EQ(e32, want_e) << where;
                    EXPECT_EQ(e16, want_e) << where;
                    EXPECT_EQ(eref, want_e) << where;
                    for (const auto &st : {s32, s16, sref}) {
                        EXPECT_EQ(st.clipped, want_clipped) << where;
                        EXPECT_EQ(st.max_bits,
                                  simd::scalar::maxAbsBitsF32(x.data(), n))
                            << where;
                    }

                    // An Inf or NaN in the last group shows in max_bits.
                    for (const float bad :
                         {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::quiet_NaN()}) {
                        std::vector<float> y = x;
                        y.back() = bad;
                        EXPECT_GE(simd::encodeRowF32(y.data(), n, g, bm, mode,
                                                     q16.data(), e16.data())
                                      .max_bits,
                                  simd::kNonFiniteAbsBits)
                            << where;
                        EXPECT_GE(simd::scalar::encodeRowF32(
                                      y.data(), n, g, bm, mode, ref32.data(),
                                      eref.data())
                                      .max_bits,
                                  simd::kNonFiniteAbsBits)
                            << where;
                    }
                }
            }
        }
    }
    EXPECT_GT(cov.ties, 0);
    EXPECT_GT(cov.left_shift, 0);
    EXPECT_GT(cov.huge, 0);
    EXPECT_GT(cov.zero_groups, 0);
    EXPECT_GT(cov.clipped, 0);
}

TEST_F(BfpEncodeTest, ColumnEncoderMatchesPerElementDefinition)
{
    // Column counts w cover every w % 8 (masked last step), and more than
    // one 64-column block, with the row stride exact or padded. The
    // padding between rows holds NaN, which a kernel that read it would
    // report in max_bits; the outputs' padding must keep its sentinels.
    // Every operand ends at its last live element.
    EncodeCoverage cov;
    constexpr int32_t kSentinel = -77777;
    for (const int bm : kEncodeBm) {
        for (const int g : kEncodeG) {
            for (const simd::QuantRound mode : kEncodeModes) {
                for (const int kd : {1, 5, 16, 17, 40}) {
                    for (const int w :
                         {1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 16, 65, 72, 130}) {
                        for (const int pad : {0, 3}) {
                            const int64_t ldx = w + pad, ldq = w + 2,
                                          lde = w + 1;
                            const int chunks = (kd + g - 1) / g;
                            std::vector<float> x(
                                static_cast<size_t>((kd - 1) * ldx + w),
                                std::numeric_limits<float>::quiet_NaN());
                            std::vector<int32_t> want_q(
                                static_cast<size_t>((kd - 1) * ldq + w),
                                kSentinel);
                            std::vector<int32_t> want_e(
                                static_cast<size_t>((chunks - 1) * lde + w),
                                kSentinel);
                            int64_t want_clipped = 0;
                            for (int c = 0; c < chunks; ++c) {
                                const int len = std::min(g, kd - c * g);
                                for (int j = 0; j < w; ++j) {
                                    const auto vals = groupValues(len, bm);
                                    const GroupDefinition d =
                                        defineGroup(vals, bm, mode);
                                    cov.note(vals, bm, d);
                                    for (int t = 0; t < len; ++t) {
                                        const int k = c * g + t;
                                        x[k * ldx + j] = vals[t];
                                        want_q[k * ldq + j] = d.mantissas[t];
                                    }
                                    want_e[c * lde + j] = d.exponent;
                                    want_clipped += d.clipped;
                                }
                            }
                            const std::string where =
                                "bm=" + std::to_string(bm) +
                                " g=" + std::to_string(g) +
                                " mode=" + std::to_string(static_cast<int>(mode)) +
                                " K=" + std::to_string(kd) +
                                " w=" + std::to_string(w) +
                                " pad=" + std::to_string(pad);
                            std::vector<int32_t> q(want_q.size(), kSentinel);
                            std::vector<int32_t> e(want_e.size(), kSentinel);
                            std::vector<int32_t> q_ref = q, e_ref = e;
                            const simd::GroupEncodeStats st =
                                simd::encodeColsF32(x.data(), ldx, kd, g, w,
                                                    bm, mode, q.data(), ldq,
                                                    e.data(), lde);
                            const simd::GroupEncodeStats st_ref =
                                simd::scalar::encodeColsF32(
                                    x.data(), ldx, kd, g, w, bm, mode,
                                    q_ref.data(), ldq, e_ref.data(), lde);
                            ASSERT_EQ(q, want_q) << where;
                            ASSERT_EQ(e, want_e) << where;
                            ASSERT_EQ(q_ref, want_q) << where;
                            ASSERT_EQ(e_ref, want_e) << where;
                            ASSERT_EQ(st.clipped, want_clipped) << where;
                            ASSERT_EQ(st_ref.clipped, want_clipped) << where;
                            ASSERT_LT(st.max_bits, simd::kNonFiniteAbsBits)
                                << where;
                            ASSERT_EQ(st.max_bits, st_ref.max_bits) << where;

                            // An Inf in the last live element shows.
                            x.back() = -std::numeric_limits<float>::infinity();
                            EXPECT_GE(simd::encodeColsF32(x.data(), ldx, kd, g,
                                                          w, bm, mode, q.data(),
                                                          ldq, e.data(), lde)
                                          .max_bits,
                                      simd::kNonFiniteAbsBits)
                                << where;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(cov.ties, 0);
    EXPECT_GT(cov.left_shift, 0);
    EXPECT_GT(cov.huge, 0);
    EXPECT_GT(cov.zero_groups, 0);
    EXPECT_GT(cov.clipped, 0);
}

TEST_F(SimdTest, FusedBfpPanelMatchesScalarReference)
{
    // Each g runs at the widest mantissa whose chunk dots still fit the
    // vector bodies' int32 lanes, g 2^(2 bm) <= 2^31 - 1, so the
    // all-minimum (-2^bm) mantissas reach that bound. Shared exponents
    // span the encoder's [-148, 128] with ebias = -2 bm, so exponent sums
    // reach both ends of [-326, 254]: outputs overflow to +-Inf (and
    // Inf - Inf to NaN) and land subnormal. A and B are sized exactly
    // (rows x K, K x n), so a sanitizer build catches a read past either;
    // the output is a sentinel-filled 4-row panel with a padded row stride
    // whose entries outside rows x n must keep the sentinel. The scalar
    // reference is also checked against the per-element definition.
    constexpr float kSentinel = -12345.5f;
    const auto exponent = [&] {
        const double u = rng.uniformReal();
        return u < 0.2   ? -148
               : u < 0.4 ? 128
                         : static_cast<int32_t>(-148 + u * 276.0);
    };
    const auto bits = [](float x) { return std::bit_cast<uint32_t>(x); };
    int infinite = 0, subnormal = 0;
    for (int g : {1, 2, 13, 16}) {
        int bm = 15;
        while ((int64_t{g} << (2 * bm)) > INT32_MAX)
            --bm;
        const int32_t qmin = -(1 << bm), qmax = (1 << bm) - 1;
        for (int kd : {1, 4, 8, 9, 16, 17, 72}) {
            const int chunks = (kd + g - 1) / g;
            for (int n : {1, 4, 7, 8, 9, 23, 64}) {
                for (int rows : {1, 3, 4}) {
                    for (const bool all_min : {false, true}) {
                        const auto mantissas = [&](size_t count) {
                            std::vector<int32_t> v = ints(count, qmin, qmax);
                            for (auto &x : v)
                                if (all_min)
                                    x = qmin;
                                else if (rng.uniformReal() < 0.1)
                                    x = 0;
                            return v;
                        };
                        const std::vector<int32_t> a32 =
                            mantissas(static_cast<size_t>(rows) * kd);
                        const std::vector<int16_t> a(a32.begin(), a32.end());
                        const std::vector<int32_t> b =
                            mantissas(static_cast<size_t>(kd) * n);
                        std::vector<int32_t> ea(
                            static_cast<size_t>(rows) * chunks);
                        std::vector<int32_t> eb(
                            static_cast<size_t>(chunks) * n);
                        for (auto &e : ea)
                            e = exponent();
                        for (auto &e : eb)
                            e = exponent();
                        const int64_t ldo = n + 3;
                        std::vector<float> out_vec(
                            static_cast<size_t>(4) * ldo, kSentinel);
                        std::vector<float> out_ref = out_vec;
                        simd::bfpPanel4(a.data(), kd, ea.data(), b.data(),
                                        eb.data(), kd, g, n, bm,
                                        out_vec.data(), ldo, rows);
                        simd::scalar::bfpPanel4(a.data(), kd, ea.data(),
                                                b.data(), eb.data(), kd, g,
                                                n, bm, out_ref.data(), ldo,
                                                rows);
                        const std::string where =
                            "g=" + std::to_string(g) +
                            " bm=" + std::to_string(bm) +
                            " K=" + std::to_string(kd) +
                            " n=" + std::to_string(n) +
                            " rows=" + std::to_string(rows) +
                            " all_min=" + std::to_string(all_min);
                        ASSERT_TRUE(sameBytes(out_vec, out_ref)) << where;
                        for (int r = 0; r < 4; ++r) {
                            for (int j = 0; j < ldo; ++j) {
                                const float got = out_ref[r * ldo + j];
                                if (r >= rows || j >= n) {
                                    ASSERT_EQ(bits(got), bits(kSentinel))
                                        << where << " r=" << r << " j=" << j;
                                    continue;
                                }
                                float want = 0.0f;
                                for (int c = 0; c < chunks; ++c) {
                                    int64_t dot = 0;
                                    for (int k = c * g;
                                         k < std::min(kd, (c + 1) * g); ++k)
                                        dot += int64_t{a[r * kd + k]} *
                                               b[k * n + j];
                                    want += static_cast<float>(std::ldexp(
                                        static_cast<double>(dot),
                                        ea[r * chunks + c] + eb[c * n + j] -
                                            2 * bm));
                                }
                                ASSERT_EQ(bits(got), bits(want))
                                    << where << " r=" << r << " j=" << j;
                                infinite += std::isinf(want);
                                subnormal += std::fpclassify(want) ==
                                             FP_SUBNORMAL;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(infinite, 0);
    EXPECT_GT(subnormal, 0);
}

TEST_F(SimdTest, FusedBfpPanelFloatEpilogueMatchesScalarReference)
{
    // The vector body scales a chunk in float when every chunk dot
    // converts to float exactly, g 2^(2 bm) <= 2^24, and the tile-chunk's
    // 4 x 8 exponent sums all lie in [-126, 127]; otherwise in double. bm
    // 10, g 16 sits exactly at 2^24 (float route); bm 10, g 17 just above
    // (double route). Per chunk, the sums are T + dr + dj for a target T,
    // dr in {0, 1} by row and dj in {-1, 0} by column, so a tile straddles
    // -127/-126 or 127/128, or sits inside the range, or far below it
    // (subnormal products) or above it (overflow to +-Inf).
    constexpr float kSentinel = -12345.5f;
    const auto bits = [](float x) { return std::bit_cast<uint32_t>(x); };
    int infinite = 0, subnormal = 0;
    for (const auto &[bm, g] :
         {std::pair{10, 16}, {10, 17}, {4, 16}, {1, 1}, {7, 5}}) {
        const int32_t qmin = -(1 << bm), qmax = (1 << bm) - 1;
        for (int kd : {1, 9, 16, 17, 33}) {
            const int chunks = (kd + g - 1) / g;
            for (int n : {1, 7, 8, 9, 17}) {
                for (int rows : {1, 3, 4}) {
                    for (const bool all_min : {false, true}) {
                        std::vector<int32_t> a32 =
                            ints(static_cast<size_t>(rows) * kd, qmin, qmax);
                        std::vector<int32_t> b =
                            ints(static_cast<size_t>(kd) * n, qmin, qmax);
                        if (all_min) {
                            std::fill(a32.begin(), a32.end(), qmin);
                            std::fill(b.begin(), b.end(), qmin);
                        }
                        const std::vector<int16_t> a(a32.begin(), a32.end());
                        std::vector<int32_t> ea(static_cast<size_t>(rows) *
                                                chunks);
                        std::vector<int32_t> eb(static_cast<size_t>(chunks) *
                                                n);
                        for (int c = 0; c < chunks; ++c) {
                            constexpr int kTargets[] = {-126, 127, 0, -140,
                                                        140};
                            const int target = kTargets[ints(1, 0, 4)[0]];
                            const int base = ints(1, -20, 20)[0];
                            for (int r = 0; r < rows; ++r)
                                ea[r * chunks + c] = base + ints(1, 0, 1)[0];
                            for (int j = 0; j < n; ++j)
                                eb[c * n + j] = target + 2 * bm - base -
                                                ints(1, 0, 1)[0];
                        }
                        const int64_t ldo = n + 3;
                        std::vector<float> out_vec(static_cast<size_t>(4) * ldo,
                                                   kSentinel);
                        std::vector<float> out_ref = out_vec;
                        simd::bfpPanel4(a.data(), kd, ea.data(), b.data(),
                                        eb.data(), kd, g, n, bm, out_vec.data(),
                                        ldo, rows);
                        simd::scalar::bfpPanel4(a.data(), kd, ea.data(),
                                                b.data(), eb.data(), kd, g, n,
                                                bm, out_ref.data(), ldo, rows);
                        const std::string where =
                            "bm=" + std::to_string(bm) +
                            " g=" + std::to_string(g) +
                            " K=" + std::to_string(kd) +
                            " n=" + std::to_string(n) +
                            " rows=" + std::to_string(rows) +
                            " all_min=" + std::to_string(all_min);
                        ASSERT_TRUE(sameBytes(out_vec, out_ref)) << where;
                        for (int r = 0; r < 4; ++r)
                            for (int j = 0; j < ldo; ++j) {
                                const float got = out_ref[r * ldo + j];
                                if (r >= rows || j >= n) {
                                    ASSERT_EQ(bits(got), bits(kSentinel))
                                        << where;
                                    continue;
                                }
                                infinite += std::isinf(got);
                                subnormal +=
                                    std::fpclassify(got) == FP_SUBNORMAL;
                            }
                    }
                }
            }
        }
    }
    EXPECT_GT(infinite, 0);
    EXPECT_GT(subnormal, 0);
}

TEST_F(SimdTest, TransposeMatchesScalarReference)
{
    // Random bit patterns (NaN payloads, subnormals, -0 included) must
    // move unchanged through the 8 x 8 tiles and the edge loops.
    const auto anyBits = [&](size_t n) {
        std::vector<float> v(n);
        for (auto &x : v)
            x = std::bit_cast<float>(
                static_cast<uint32_t>(rng.uniformReal() * 4294967296.0));
        return v;
    };
    std::vector<std::pair<int, int>> shapes = {{9, 1024}, {72, 256}};
    for (int rows : {1, 7, 8, 9, 16, 17, 64, 72, 256})
        for (int cols : {1, 7, 8, 9, 16, 17, 64, 72, 256})
            shapes.emplace_back(rows, cols);
    for (const auto &[rows, cols] : shapes) {
        const auto a = anyBits(static_cast<size_t>(rows) * cols);
        std::vector<float> out_vec(a.size()), out_ref(a.size());
        simd::transposeF32(a.data(), rows, cols, out_vec.data());
        simd::scalar::transposeF32(a.data(), rows, cols, out_ref.data());
        ASSERT_TRUE(sameBytes(out_vec, out_ref))
            << "rows=" << rows << " cols=" << cols;
    }
}

TEST_F(SimdTest, Im2colPlanesMatchScalarReference)
{
    // Every offset a kernel of up to 5 taps with padding up to 2 uses,
    // planes of 1..17 rows and columns, and output extents equal to the
    // plane's or two rows fewer and two columns more (or the reverse), so
    // output rows end off the 8-lane step and row shifts leave the plane
    // on either side. Operands are sized exactly, so a sanitizer build
    // catches a lane that reads or writes outside the plane. im2col
    // destinations start as sentinels that every entry must overwrite;
    // col2im adds into sentinel-filled planes whose entries outside the
    // shifted window must keep their sentinel.
    constexpr float kSentinel = -12345.5f;
    const auto values = [&](size_t n) {
        std::vector<float> v = floats(n);
        for (auto &x : v)
            if (rng.uniformReal() < 0.05)
                x = std::numeric_limits<float>::quiet_NaN();
        return v;
    };
    for (int h = 1; h <= 17; ++h) {
        for (int w = 1; w <= 17; ++w) {
            const auto x = values(static_cast<size_t>(h) * w);
            for (const auto &[out_h, out_w] :
                 {std::pair{h, w}, {h - 2, w + 2}, {h + 2, w - 2}}) {
                if (out_h < 1 || out_w < 1)
                    continue;
                const auto src = values(static_cast<size_t>(out_h) * out_w);
                std::vector<float> cols_vec(src.size()), cols_ref(src.size());
                std::vector<float> x_vec(x.size()), x_ref(x.size());
                for (int dy = -2; dy <= 2; ++dy) {
                    for (int dx = -2; dx <= 2; ++dx) {
                        const auto where = [&] {
                            return "h=" + std::to_string(h) +
                                   " w=" + std::to_string(w) +
                                   " out=" + std::to_string(out_h) + "x" +
                                   std::to_string(out_w) +
                                   " dy=" + std::to_string(dy) +
                                   " dx=" + std::to_string(dx);
                        };
                        std::fill(cols_vec.begin(), cols_vec.end(), kSentinel);
                        std::fill(cols_ref.begin(), cols_ref.end(), kSentinel);
                        simd::im2colPlaneF32(x.data(), h, w, dy, dx, out_h,
                                             out_w, cols_vec.data());
                        simd::scalar::im2colPlaneF32(x.data(), h, w, dy, dx,
                                                     out_h, out_w,
                                                     cols_ref.data());
                        ASSERT_TRUE(sameBytes(cols_vec, cols_ref)) << where();

                        std::fill(x_vec.begin(), x_vec.end(), kSentinel);
                        std::fill(x_ref.begin(), x_ref.end(), kSentinel);
                        simd::col2imPlaneF32(src.data(), h, w, dy, dx, out_h,
                                             out_w, x_vec.data());
                        simd::scalar::col2imPlaneF32(src.data(), h, w, dy, dx,
                                                     out_h, out_w,
                                                     x_ref.data());
                        ASSERT_TRUE(sameBytes(x_vec, x_ref)) << where();
                    }
                }
            }
        }
    }
}

} // namespace
