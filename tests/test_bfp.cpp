/**
 * @file
 * Tests for BFP encoding and the BFP GEMM: shared-exponent selection,
 * rounding modes, quantization error bounds, and the key transparency
 * property — the integer-dot GEMM equals the literal RNS round trip
 * (residues, modular dots, CRT decode) bit for bit whenever Eq. (13) holds
 * (paper Sec. III / V-A).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

#include "bfp/bfp.h"
#include "bfp/bfp_gemm.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "rns/conversion.h"
#include "runtime/thread_pool.h"
#include "test_support.h"

namespace mirage {
namespace bfp {
namespace {

using BfpSeeded = mirage::test::SeededTest;

/**
 * bfpGemm over `moduli` against bfpGemmRnsReference: the same outputs bit
 * for bit, and the same values drawn from the rng.
 */
void
expectRnsTransparent(const std::vector<float> &a, const std::vector<float> &b,
                     int m, int k, int n, const BfpConfig &cfg,
                     const rns::ModuliSet &moduli)
{
    Rng fast_rng(99), ref_rng(99);
    BfpGemmOptions opts;
    opts.config = cfg;
    opts.moduli = moduli;
    opts.rng = &fast_rng;
    const std::vector<float> fast = bfpGemm(a, b, m, k, n, opts);
    std::vector<float> ref(fast.size());
    bfpGemmRnsReference(a, b, ref, m, k, n, cfg, rns::cachedCodec(moduli),
                        &ref_rng);
    for (size_t i = 0; i < fast.size(); ++i)
        ASSERT_EQ(fast[i], ref[i])
            << "bm=" << cfg.bm << " g=" << cfg.g << " @" << i;
    EXPECT_EQ(fast_rng.nextU64(), ref_rng.nextU64());
}

TEST(BfpBlock, SharedExponentIsMaxExponent)
{
    const BfpConfig cfg{4, 8, Rounding::Nearest};
    std::vector<float> vals = {0.5f, -3.0f, 0.25f, 1.5f};
    const BfpBlock block = encodeBlock(vals, cfg);
    // max |v| = 3.0 -> exponent 2 (3.0 < 2^2).
    EXPECT_EQ(block.exponent, 2);

    // The frexp exponent of the largest magnitude across the float range,
    // subnormals included (those carry it in their bit width).
    const float denorm_min = std::numeric_limits<float>::denorm_min();
    for (float largest :
         {denorm_min, 3 * denorm_min, FLT_MIN / 3, FLT_MIN - denorm_min,
          FLT_MIN, -1.0f, 0.999f, 1e30f, -FLT_MAX, FLT_MAX}) {
        const std::vector<float> group = {largest / 4, -0.0f, largest,
                                          denorm_min};
        int expect = 0;
        std::frexp(largest, &expect);
        EXPECT_EQ(encodeBlock(group, cfg).exponent, expect) << largest;
    }
}

TEST(BfpBlock, AllZeroGroup)
{
    const BfpConfig cfg{4, 8, Rounding::Truncate};
    std::vector<float> vals(8, 0.0f);
    const BfpBlock block = encodeBlock(vals, cfg);
    for (auto m : block.mantissas)
        EXPECT_EQ(m, 0);
    const auto decoded = decodeBlock(block, cfg);
    for (float v : decoded)
        EXPECT_EQ(v, 0.0f);
}

TEST(BfpBlock, ExactValuesSurviveRoundTrip)
{
    // Values already on the BFP grid must be unchanged by encode/decode.
    // Max |v| = 1.0 pins the shared exponent to 1, so the grid is 2^(1-4).
    const BfpConfig cfg{4, 4, Rounding::Nearest};
    std::vector<float> vals = {1.0f, -0.75f, 0.5f, 0.875f}; // /8 grid at e=1
    const BfpBlock block = encodeBlock(vals, cfg);
    const auto decoded = decodeBlock(block, cfg);
    for (size_t i = 0; i < vals.size(); ++i)
        EXPECT_EQ(decoded[i], vals[i]) << i;
}

TEST_F(BfpSeeded, MantissaRangeRespected)
{
    const BfpConfig cfg{4, 16, Rounding::Nearest};
    for (int t = 0; t < 200; ++t) {
        const auto vals = mirage::test::gaussianVector(rng, 16, 0, 10);
        const BfpBlock block = encodeBlock(vals, cfg);
        // (bm+1)-bit two's complement: [-16, 15] for bm = 4.
        for (auto q : block.mantissas) {
            EXPECT_LE(q, 15);
            EXPECT_GE(q, -16);
        }
    }
}

TEST_F(BfpSeeded, QuantizationErrorBound)
{
    // |error| <= 2^(e - bm) per element: one mantissa ULP for nearest
    // rounding is half that, truncation a full ULP.
    const BfpConfig cfg{4, 16, Rounding::Truncate};
    for (int t = 0; t < 100; ++t) {
        const auto vals = mirage::test::gaussianVector(rng, 16, 0, 2);
        const BfpBlock block = encodeBlock(vals, cfg);
        const double ulp = std::ldexp(1.0, block.exponent - cfg.bm);
        for (size_t i = 0; i < vals.size(); ++i) {
            const double err = std::fabs(block.decode(i, cfg.bm) - vals[i]);
            EXPECT_LE(err, ulp * (1.0 + 1e-9)) << "i=" << i;
        }
    }
}

TEST(BfpBlock, TruncationRoundsTowardMinusInfinity)
{
    // Two's-complement LSB truncation == floor: decoded values never
    // exceed the originals, for either sign.
    const BfpConfig cfg{4, 4, Rounding::Truncate};
    std::vector<float> vals = {0.99f, -0.99f, 0.33f, -0.33f};
    const BfpBlock block = encodeBlock(vals, cfg);
    for (size_t i = 0; i < vals.size(); ++i)
        EXPECT_LE(block.decode(i, cfg.bm), vals[i]);
    // Positive values shrink; negative values grow in magnitude.
    EXPECT_LE(std::fabs(block.decode(0, cfg.bm)), 0.99f);
    EXPECT_GE(std::fabs(block.decode(1, cfg.bm)), 0.99f);
}

TEST_F(BfpSeeded, StochasticRoundingIsUnbiased)
{
    const float v = 0.53f; // deliberately off-grid
    double sum = 0;
    const int n = 20000;
    for (int t = 0; t < n; ++t) {
        std::vector<float> vals = {v, 1.0f}; // second value pins exponent
        BfpConfig cfg2{4, 2, Rounding::Stochastic};
        const BfpBlock block = encodeBlock(vals, cfg2, &rng);
        sum += block.decode(0, cfg2.bm);
    }
    EXPECT_NEAR(sum / n, v, 0.002);
}

TEST(BfpBlock, NearestMayRoundAwayButSaturates)
{
    // 0.97 at shared exponent 0 scales to 15.52 -> nearest would be 16,
    // which exceeds bm=4 mantissa range and must saturate to 15.
    const BfpConfig cfg{4, 2, Rounding::Nearest};
    std::vector<float> vals = {0.97f, 0.999f};
    const BfpBlock block = encodeBlock(vals, cfg);
    EXPECT_EQ(block.mantissas[0], 15);
    EXPECT_EQ(block.mantissas[1], 15);
}

TEST(BfpGemmTest, MatchesFp32OnGridValues)
{
    // Inputs representable exactly in BFP: GEMM must be exact.
    const int m = 3, k = 8, n = 2;
    std::vector<float> a(m * k), b(k * n);
    for (int i = 0; i < m * k; ++i)
        a[i] = static_cast<float>((i % 7) - 3) * 0.125f;
    for (int i = 0; i < k * n; ++i)
        b[i] = static_cast<float>((i % 5) - 2) * 0.25f;

    BfpGemmOptions opts;
    opts.config = {4, 4, Rounding::Nearest};
    const auto c = bfpGemm(a, b, m, k, n, opts);
    const auto ref = mirage::test::referenceGemm(a, b, m, k, n);
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(c[i], ref[i], 1e-6) << i;
}

TEST_F(BfpSeeded, RnsPathIsTransparent)
{
    // The paper's core numerical claim: with Eq. (13) satisfied, computing
    // the chunk dot products in the RNS domain is bit-identical to the
    // exact integer dots bfpGemm computes, in every rounding mode.
    const int m = 6, k = 40, n = 5; // ragged row panel, K and column tails
    const auto a = mirage::test::gaussianVector(rng, m * k);
    const auto b = mirage::test::gaussianVector(rng, k * n);
    for (Rounding r :
         {Rounding::Truncate, Rounding::Nearest, Rounding::Stochastic})
        expectRnsTransparent(a, b, m, k, n, {4, 16, r},
                             mirage::test::paperModuli());
}

TEST_F(BfpSeeded, RnsTransparencyAcrossConfigs)
{
    struct Case { int bm; int g; rns::ModuliSet set; };
    const Case cases[] = {
        {3, 16, rns::ModuliSet::special(4)},
        {4, 16, rns::ModuliSet::special(5)},
        {5, 64, rns::ModuliSet::special(6)},
        // A modulus past the raw 64-bit accumulation bound sends the
        // reference through its fully reduced fallback.
        {4, 16, rns::ModuliSet({(uint64_t{1} << 21) + 1})},
    };
    for (const Case &c : cases) {
        const int m = 9, k = 2 * c.g + 3, n = 70; // two column tiles
        const auto a = mirage::test::gaussianVector(rng, m * k, 0, 4);
        const auto b = mirage::test::gaussianVector(rng, k * n, 0, 0.5);
        expectRnsTransparent(a, b, m, k, n, {c.bm, c.g, Rounding::Truncate},
                             c.set);
    }
}

TEST(BfpGemmTest, AllMinimumMantissasAtTheEq13Bound)
{
    // -0.99 truncates to mantissa -16 = -2^bm at exponent 0, so the chunk
    // dot is the largest there is, g * 2^(2 bm) = 4096, and the GEMM
    // returns 4096 * 2^-8 = 16. {8193} (psi = 4096) holds it bit for bit;
    // {8192} (psi = 4095) would wrap it to -16 and is rejected
    // (RejectsModuliTooSmallForConfig).
    const std::vector<float> a(16, -0.99f), b(16, -0.99f);
    const BfpConfig cfg{4, 16, Rounding::Truncate};
    BfpGemmOptions plain;
    plain.config = cfg;
    EXPECT_EQ(bfpGemm(a, b, 1, 16, 1, plain)[0], 16.0f);
    expectRnsTransparent(a, b, 1, 16, 1, cfg, rns::ModuliSet({8193}));
}

TEST(BfpGemmTest, AllMinimumMantissasAtTheInt32Bound)
{
    // -0.99999994 (just above -1) truncates to mantissa -2^bm at exponent
    // 0 for every bm here, so one g-element chunk dot is g 2^(2 bm) and the
    // GEMM returns exactly g. The vector kernel sums chunk dots in int32
    // lanes, which hold them up to 2^31 - 1: bm = 13, g = 31 is the widest
    // config inside that bound. bm = 13, g = 32 and bm = 15, g = 2 reach
    // 2^31, which an int32 sum or a 16-bit multiply-add pair would wrap to
    // -2^31 (returning -32 and -2); they run the int64 reference instead.
    for (const auto &[bm, g] : {std::pair{13, 31}, {13, 32}, {15, 2}}) {
        const std::vector<float> a(static_cast<size_t>(g), -0.99999994f);
        BfpGemmOptions opts;
        opts.config = {bm, g, Rounding::Truncate};
        EXPECT_EQ(bfpGemm(a, a, 1, g, 1, opts)[0], static_cast<float>(g))
            << "bm=" << bm << " g=" << g;
    }
}

/**
 * One value for the fingerprint test from raw engine words (no
 * floating-point distribution, so the inputs are the same on every
 * standard library): +-0, a subnormal of bit width at most 6, a tie (an
 * odd multiple of 2^-(bm + 1) below 2), a value near FLT_MAX, or a finite
 * value with a biased exponent in [100, 150].
 */
float
fingerprintValue(Rng &rng, int bm)
{
    const uint64_t w = rng.nextU64();
    const uint32_t lo = static_cast<uint32_t>(w);
    const uint32_t sign = lo & 0x80000000u;
    switch ((w >> 32) % 5) {
      case 0: return std::bit_cast<float>(sign);
      case 1: return std::bit_cast<float>(sign | (lo & 0x3fu));
      case 2: {
        const int odd = static_cast<int>((lo >> 8) % (1u << (bm + 1))) | 1;
        return std::ldexp(sign ? -static_cast<float>(odd)
                               : static_cast<float>(odd),
                          -(bm + 1));
      }
      case 3: return std::bit_cast<float>(sign | 0x7f000000u | (lo & 0x7fffffu));
      default:
        return std::bit_cast<float>(
            sign | (lo & 0x7fffffu) |
            static_cast<uint32_t>(100 + (w >> 40) % 51) << 23);
    }
}

TEST(BfpGemmTest, EncodingsAndGemmsMatchRecordedFingerprints)
{
    // FNV-1a over encodeRowsPacked and encodeColsPacked (mantissas and
    // exponents), bfpGemm's output and the caller rng's next draw, per
    // config over four shapes with ragged chunks and column counts off the
    // 8-lane step. The fingerprints were recorded from the double-route
    // encoders and epilogue that the one-pass encoders and the float
    // epilogue replaced, so they pin those paths (and stochastic rounding's
    // draws) to it bit for bit.
    struct Case
    {
        BfpConfig cfg;
        uint64_t want;
    };
    const Case cases[] = {
        {{4, 16, Rounding::Truncate}, 0xd1677a12cb6c8120ull},
        {{4, 16, Rounding::Nearest}, 0x8f857fa5d9037ae2ull},
        {{4, 16, Rounding::Stochastic}, 0x0ad20ce34d30f7c2ull},
        {{10, 16, Rounding::Nearest}, 0x5838c15795a00822ull},
        {{10, 17, Rounding::Truncate}, 0xb411ca8718cf410eull},
        {{13, 31, Rounding::Nearest}, 0x84f0eb3c86bd76caull},
        {{15, 2, Rounding::Truncate}, 0x901117b70930244dull},
        {{1, 7, Rounding::Nearest}, 0x6627687470d0ea4eull},
        {{12, 2, Rounding::Stochastic}, 0xa49f872d8f4b385eull},
    };
    struct Shape
    {
        int m, k, n;
    };
    const Shape shapes[] = {{5, 37, 11}, {4, 16, 9}, {9, 8, 64}, {13, 100, 3}};
    for (const Case &cs : cases) {
        uint64_t h = 1469598103934665603ull;
        const auto mix = [&h](const void *p, size_t bytes) {
            const unsigned char *c = static_cast<const unsigned char *>(p);
            for (size_t i = 0; i < bytes; ++i) {
                h ^= c[i];
                h *= 1099511628211ull;
            }
        };
        Rng values(17);
        for (const Shape &s : shapes) {
            std::vector<float> a(static_cast<size_t>(s.m) * s.k);
            std::vector<float> b(static_cast<size_t>(s.k) * s.n);
            for (auto &v : a)
                v = fingerprintValue(values, cs.cfg.bm);
            for (auto &v : b)
                v = fingerprintValue(values, cs.cfg.bm);
            Rng rng(23);
            Workspace ws;
            {
                Workspace::Scope scope(ws);
                const BfpPackedMatrix ae =
                    encodeRowsPacked(a, s.m, s.k, cs.cfg, ws, &rng);
                const BfpColumnPanels be =
                    encodeColsPacked(b, s.k, s.n, cs.cfg, ws, &rng);
                mix(ae.mantissas.data(), ae.mantissas.size_bytes());
                mix(ae.exponents.data(), ae.exponents.size_bytes());
                mix(be.mantissas.data(), be.mantissas.size_bytes());
                mix(be.exponents.data(), be.exponents.size_bytes());
            }
            std::vector<float> c(static_cast<size_t>(s.m) * s.n);
            bfpGemm(a, b, c, s.m, s.k, s.n, cs.cfg, nullptr, &rng);
            // Inf - Inf sums are NaN, whose payload the platform picks.
            for (float &v : c)
                if (std::isnan(v))
                    v = std::numeric_limits<float>::quiet_NaN();
            mix(c.data(), c.size() * sizeof(float));
            const uint64_t next = rng.nextU64();
            mix(&next, sizeof next);
        }
        EXPECT_EQ(h, cs.want) << "bm=" << cs.cfg.bm << " g=" << cs.cfg.g
                              << " " << toString(cs.cfg.rounding);
    }
}

TEST(BfpGemmTest, ForksOnlyAtTheComputeCutoff)
{
    // A lone GEMM forks its panel loop onto the pool at kMinComputeWork
    // MACs or more; below that it runs inline. The operands here stay
    // below kMinEncodeWork elements, so encoding never forks.
    if (!obs::enabled())
        GTEST_SKIP() << "needs the runtime.pool.loops counter (MIRAGE_OBS)";
    struct PoolGuard
    {
        PoolGuard() { runtime::ThreadPool::setGlobalThreads(4); }
        ~PoolGuard() { runtime::ThreadPool::setGlobalThreads(0); }
    } pool;
    obs::Counter &loops =
        obs::MetricsRegistry::global().counter("runtime.pool.loops");
    const BfpConfig cfg{4, 16, Rounding::Truncate};
    Rng rng(7);
    const auto dispatches = [&](int m, int k, int n) {
        EXPECT_LT(int64_t{k} * std::max(m, n), kMinEncodeWork);
        const auto a = mirage::test::gaussianVector(rng, m * k);
        const auto b = mirage::test::gaussianVector(rng, k * n);
        std::vector<float> c(static_cast<size_t>(m) * n);
        const uint64_t before = loops.value();
        bfpGemm(a, b, c, m, k, n, cfg, nullptr);
        return loops.value() - before;
    };
    const int n_cut = static_cast<int>(kMinComputeWork / (64 * 64));
    EXPECT_EQ(dispatches(64, 64, n_cut), 1u);
    EXPECT_EQ(dispatches(63, 64, n_cut), 0u);
    EXPECT_EQ(dispatches(192, 64, 96), 1u);
    // The small training CNN's largest GEMM (conv2 forward at
    // micro-batch 4) runs inline.
    EXPECT_EQ(dispatches(16, 72, 256), 0u);
}

TEST(BfpGemmTest, RnsReplayForksBelowTheComputeCutoff)
{
    // The RNS reference costs far more per MAC than bfpGemm, so its own
    // loops fork at far smaller sizes: the sampled replay of conv2
    // forward forks B's residue planes (61,440 residues) and its row loop
    // (20,480 chunk dots); its operands stay below the encode cutoff.
    if (!obs::enabled())
        GTEST_SKIP() << "needs the runtime.pool.loops counter (MIRAGE_OBS)";
    struct PoolGuard
    {
        PoolGuard() { runtime::ThreadPool::setGlobalThreads(4); }
        ~PoolGuard() { runtime::ThreadPool::setGlobalThreads(0); }
    } pool;
    obs::Counter &loops =
        obs::MetricsRegistry::global().counter("runtime.pool.loops");
    const BfpConfig cfg{4, 16, Rounding::Nearest};
    const rns::RnsCodec &codec =
        rns::cachedCodec(mirage::test::paperModuli());
    Rng rng(11);
    const auto dispatches = [&](int m, int k, int n) {
        const auto a = mirage::test::gaussianVector(rng, m * k);
        const auto b = mirage::test::gaussianVector(rng, k * n);
        std::vector<float> c(static_cast<size_t>(m) * n);
        const uint64_t before = loops.value();
        bfpGemmRnsReference(a, b, c, m, k, n, cfg, codec);
        return loops.value() - before;
    };
    ASSERT_LT(int64_t{16} * 72 * 256, kMinComputeWork);
    EXPECT_EQ(dispatches(16, 72, 256), 2u);
    EXPECT_EQ(dispatches(4, 16, 4), 0u);
}

TEST_F(BfpSeeded, QuantizationErrorShrinksWithMantissaBits)
{
    const int m = 8, k = 64, n = 8;
    const auto a = mirage::test::gaussianVector(rng, m * k);
    const auto b = mirage::test::gaussianVector(rng, k * n);
    const auto ref = mirage::test::referenceGemm(a, b, m, k, n);

    double prev_err = 1e30;
    for (int bm : {2, 4, 6, 8}) {
        BfpGemmOptions opts;
        opts.config = {bm, 16, Rounding::Nearest};
        const auto c = bfpGemm(a, b, m, k, n, opts);
        double err = 0;
        for (size_t i = 0; i < c.size(); ++i)
            err += std::fabs(c[i] - ref[i]);
        EXPECT_LT(err, prev_err) << "bm=" << bm;
        prev_err = err;
    }
}

TEST(BfpGemmDeath, RejectsModuliTooSmallForConfig)
{
    std::vector<float> a(16, 1.0f), b(16, 1.0f);
    BfpGemmOptions opts;
    opts.config = {5, 16, Rounding::Truncate}; // needs k >= 6
    opts.moduli = mirage::test::paperModuli();
    EXPECT_EXIT(bfpGemm(a, b, 1, 16, 1, opts), testing::ExitedWithCode(1),
                "Eq. 13");
    // An even M exactly at log2 M = 2 (bm + 1) + log2 g - 1: psi = M/2 - 1
    // is one short of the all-minimum chunk dot.
    opts.config = {4, 16, Rounding::Truncate};
    opts.moduli = rns::ModuliSet({8192});
    EXPECT_EXIT(bfpGemm(a, b, 1, 16, 1, opts), testing::ExitedWithCode(1),
                "Eq. 13");
}

TEST(BfpGemmDeath, NonFiniteOperandIsFatal)
{
    BfpGemmOptions opts;
    opts.config = {4, 16, Rounding::Nearest};
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
        for (const bool in_b : {false, true}) {
            std::vector<float> a(5 * 20, 0.5f), b(20 * 9, -0.25f);
            (in_b ? b[20 * 9 - 1] : a[37]) = bad;
            EXPECT_EXIT(bfpGemm(a, b, 5, 20, 9, opts),
                        testing::ExitedWithCode(1),
                        "non-finite value in BFP group")
                << bad << (in_b ? " in B" : " in A");
        }
    }
}

TEST(BfpConfigTest, DotProductBits)
{
    // Eq. (13): 2*(bm+1) + log2(g) - 1.
    EXPECT_EQ((BfpConfig{4, 16, Rounding::Truncate}).dotProductBits(), 13);
    EXPECT_EQ((BfpConfig{5, 64, Rounding::Truncate}).dotProductBits(), 17);
    EXPECT_EQ((BfpConfig{3, 16, Rounding::Truncate}).dotProductBits(), 11);
}

TEST_F(BfpSeeded, FakeQuantizeMatchesEncodeDecode)
{
    const BfpConfig cfg{4, 16, Rounding::Truncate};
    std::vector<float> vals = mirage::test::gaussianVector(rng, 50, 0, 3);
    std::vector<float> copy = vals;
    fakeQuantize(std::span<float>(copy), cfg);
    // Re-quantizing is idempotent.
    std::vector<float> twice = copy;
    fakeQuantize(std::span<float>(twice), cfg);
    for (size_t i = 0; i < copy.size(); ++i)
        EXPECT_EQ(copy[i], twice[i]) << i;
}

} // namespace
} // namespace bfp
} // namespace mirage
