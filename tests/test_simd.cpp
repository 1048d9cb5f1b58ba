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
 * tail and int32 lanes at their bound, and the layer kernels' edge tiles
 * and masked row shifts.
 */

#include <gtest/gtest.h>

#include <bit>
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

    // Quantizer: power-of-two scales per column or per row, wide enough to
    // clip at both ends of [-16, 15], every mode, ragged column tails.
    for (const simd::QuantRound mode :
         {simd::QuantRound::Floor, simd::QuantRound::HalfAway,
          simd::QuantRound::Stochastic}) {
        for (const bool column_scales : {true, false}) {
            for (int rows : {1, 3}) {
                for (int w : {1, 7, 8, 9, 21}) {
                    const int64_t ldx = w + 1, ldq = w + 2;
                    // Finite scaled values only: clamp the near-FLT_MAX
                    // inputs.
                    auto x = edgeFloats(static_cast<size_t>(rows) * ldx,
                                        false);
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
                    std::vector<int32_t> q_vec(
                        static_cast<size_t>(rows) * ldq, -99);
                    auto q_ref = q_vec;
                    const int64_t c_vec = simd::quantizeF32(
                        x.data(), ldx, rows, w, scale.data(), column_scales,
                        mode, u.data(), -16, 15, q_vec.data(), ldq);
                    const int64_t c_ref = simd::scalar::quantizeF32(
                        x.data(), ldx, rows, w, scale.data(), column_scales,
                        mode, u.data(), -16, 15, q_ref.data(), ldq);
                    const std::string where =
                        "mode=" + std::to_string(static_cast<int>(mode)) +
                        " columns=" + std::to_string(column_scales) +
                        " rows=" + std::to_string(rows) +
                        " w=" + std::to_string(w);
                    EXPECT_EQ(q_vec, q_ref) << where;
                    EXPECT_EQ(c_vec, c_ref) << where;
                }
            }
        }
    }
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
                                        eb.data(), kd, g, n, -2 * bm,
                                        out_vec.data(), ldo, rows);
                        simd::scalar::bfpPanel4(a.data(), kd, ea.data(),
                                                b.data(), eb.data(), kd, g,
                                                n, -2 * bm, out_ref.data(),
                                                ldo, rows);
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
