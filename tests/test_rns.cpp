/**
 * @file
 * Unit and property tests for the RNS core: modular primitives, moduli set
 * validation, Eq. (13) capacity checks, CRT/mixed-radix conversion round
 * trips, and the modular GEMM golden model.
 */

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "obs/fidelity.h"
#include "obs/metrics.h"
#include "rns/conversion.h"
#include "rns/modular_gemm.h"
#include "rns/moduli_set.h"
#include "rns/modulus.h"
#include "test_support.h"

namespace mirage {
namespace rns {
namespace {

using RnsSeeded = mirage::test::SeededTest;

TEST(Modulus, AddSubMul)
{
    EXPECT_EQ(addMod(30, 5, 31), 4u);
    EXPECT_EQ(addMod(0, 0, 31), 0u);
    EXPECT_EQ(subMod(3, 5, 31), 29u);
    EXPECT_EQ(mulMod(30, 30, 31), 1u); // (-1)^2 = 1
    EXPECT_EQ(mulMod(12345678901ull, 98765432109ull, 1000000007ull),
              (static_cast<unsigned __int128>(12345678901ull) *
               98765432109ull) % 1000000007ull);
}

TEST(Modulus, ReduceSigned)
{
    EXPECT_EQ(reduceSigned(0, 31), 0u);
    EXPECT_EQ(reduceSigned(-1, 31), 30u);
    EXPECT_EQ(reduceSigned(-31, 31), 0u);
    EXPECT_EQ(reduceSigned(-32, 31), 30u);
    EXPECT_EQ(reduceSigned(64, 31), 2u);
}

TEST(Modulus, InvModAgainstBruteForce)
{
    for (uint64_t m : {3ull, 31ull, 32ull, 33ull, 257ull}) {
        for (uint64_t a = 1; a < m; ++a) {
            if (gcd64(a, m) != 1)
                continue;
            const uint64_t inv = invMod(a, m);
            EXPECT_EQ(mulMod(a, inv, m), 1u) << "a=" << a << " m=" << m;
        }
    }
}

TEST(ModuliSet, SpecialSetK5)
{
    const ModuliSet set = ModuliSet::special(5);
    ASSERT_EQ(set.count(), 3u);
    EXPECT_EQ(set.modulus(0), 31u);
    EXPECT_EQ(set.modulus(1), 32u);
    EXPECT_EQ(set.modulus(2), 33u);
    // M = 2^{3k} - 2^k = 32768 - 32 = 32736.
    EXPECT_EQ(static_cast<uint64_t>(set.dynamicRange()), 32736u);
    EXPECT_EQ(static_cast<uint64_t>(set.psi()), 16367u);
    EXPECT_EQ(set.maxConverterBits(), 6); // ceil(log2 33)
    EXPECT_EQ(set.converterBits(0), 5);
    EXPECT_EQ(set.converterBits(1), 5);
    EXPECT_EQ(set.converterBits(2), 6);
}

TEST(ModuliSet, Eq13CapacityMatchesPaper)
{
    // Paper Sec. VI-A1: kmin = 4 for bm=3, kmin = 5 for bm=4, kmin = 6 for
    // bm=5 (with g = 16).
    EXPECT_EQ(ModuliSet::minSpecialK(3, 16), 4);
    EXPECT_EQ(ModuliSet::minSpecialK(4, 16), 5);
    EXPECT_EQ(ModuliSet::minSpecialK(5, 16), 6);

    EXPECT_TRUE(ModuliSet::special(5).canHoldDotProduct(4, 16));
    EXPECT_FALSE(ModuliSet::special(5).canHoldDotProduct(5, 16));
    // bm = 5 needs k = 6 up to g = 64 (paper Fig. 5 discussion).
    EXPECT_TRUE(ModuliSet::special(6).canHoldDotProduct(5, 64));
    // Exact at the bound: the all-minimum chunk dot of bm = 4, g = 16 is
    // 16 * 2^8 = 4096. {8192} meets log2 M >= 13, but psi = 4095 cannot
    // hold it; {8193} (psi = 4096) can.
    EXPECT_FALSE(ModuliSet({8192}).canHoldDotProduct(4, 16));
    EXPECT_TRUE(ModuliSet({8193}).canHoldDotProduct(4, 16));
}

TEST(ModuliSet, SignedRange)
{
    const ModuliSet set = ModuliSet::special(5);
    EXPECT_TRUE(set.inSignedRange(16367));
    EXPECT_TRUE(set.inSignedRange(-16367));
    EXPECT_FALSE(set.inSignedRange(16368));
    EXPECT_FALSE(set.inSignedRange(-16368));
}

TEST(ModuliSetDeath, RejectsNonCoprime)
{
    EXPECT_EXIT(ModuliSet({6, 9}), testing::ExitedWithCode(1), "co-prime");
}

TEST(ModuliSetDeath, RejectsTrivialModulus)
{
    EXPECT_EXIT(ModuliSet({1, 5}), testing::ExitedWithCode(1), "modulus");
}

TEST(RnsCodec, EncodeDecodeRoundTripExhaustiveSmallSet)
{
    const RnsCodec codec{mirage::test::tinyModuli()}; // M = 60, psi = 29
    for (int64_t x = -29; x <= 29; ++x) {
        const ResidueVector r = codec.encode(x);
        EXPECT_EQ(codec.decode(r), x);
        EXPECT_EQ(codec.decodeMixedRadix(r), x);
    }
}

TEST(RnsCodec, RoundTripSpecialSetBoundaries)
{
    const RnsCodec codec{ModuliSet::special(5)};
    for (int64_t x : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{16367},
                      int64_t{-16367}, int64_t{12345}, int64_t{-9876}}) {
        EXPECT_EQ(codec.decode(codec.encode(x)), x) << "x=" << x;
    }
}

TEST_F(RnsSeeded, CrtMatchesMixedRadixRandomized)
{
    for (int k : {4, 5, 6, 8}) {
        const RnsCodec codec{ModuliSet::special(k)};
        const int64_t psi = static_cast<int64_t>(codec.set().psi());
        for (int t = 0; t < 2000; ++t) {
            const int64_t x = rng.uniformInt(-psi, psi);
            const ResidueVector r = codec.encode(x);
            EXPECT_EQ(codec.decode(r), x);
            EXPECT_EQ(codec.decodeMixedRadix(r), codec.decode(r));
        }
    }
}

TEST_F(RnsSeeded, LargeGenericSet)
{
    // Five co-prime moduli, M ~ 2^38.
    const RnsCodec codec{mirage::test::wideModuli()};
    const int64_t psi = static_cast<int64_t>(codec.set().psi());
    for (int t = 0; t < 1000; ++t) {
        const int64_t x = rng.uniformInt(-psi, psi);
        EXPECT_EQ(codec.decode(codec.encode(x)), x);
        EXPECT_EQ(codec.decodeMixedRadix(codec.encode(x)), x);
    }
}

TEST(RnsCodec, UnsignedDecode)
{
    const RnsCodec codec{ModuliSet::special(5)};
    for (uint64_t x : {0ull, 1ull, 31ull, 32ull, 33ull, 32735ull}) {
        EXPECT_EQ(static_cast<uint64_t>(
                      codec.decodeUnsigned(codec.encodeUnsigned(x))),
                  x);
    }
}

TEST_F(RnsSeeded, ModularGemmMatchesExactIntegerGemm)
{
    const ModuliSet set = mirage::test::paperModuli();
    const RnsGemmEngine engine(set);
    const int m = 5, k = 16, n = 7;
    // BFP mantissa range for bm=4: [-15, 15]; Eq. (13) guarantees fit.
    const auto a =
        mirage::test::randomIntVector(rng, static_cast<size_t>(m) * k, -15, 15);
    const auto b =
        mirage::test::randomIntVector(rng, static_cast<size_t>(k) * n, -15, 15);

    const auto c = engine.gemm(a, b, m, k, n); // internally cross-checked
    EXPECT_EQ(c, mirage::test::referenceGemm(a, b, m, k, n));
}

TEST(ModularGemmDeath, DetectsRangeOverflow)
{
    // g = 256 with bm = 4 needs log2(M) >= 2*5 + 8 - 1 = 17 > 14.99 for k=5;
    // adversarial all-max inputs overflow and the engine must flag it.
    const ModuliSet set = ModuliSet::special(5);
    const RnsGemmEngine engine(set);
    const int m = 1, k = 256, n = 1;
    std::vector<int64_t> a(k, 15), b(k, 15);
    EXPECT_EXIT(engine.gemm(a, b, m, k, n), testing::ExitedWithCode(1),
                "dynamic range exceeded");
}

TEST_F(RnsSeeded, ModularDotSmallAndLargeModulusPathsAgree)
{
    const int len = 64;
    std::vector<Residue> a(len), b(len);
    const uint64_t small_m = 33;
    const uint64_t large_m = (uint64_t{1} << 31) - 1; // forces mulMod path
    for (int i = 0; i < len; ++i) {
        a[i] = rng.uniformInt(0, 32);
        b[i] = rng.uniformInt(0, 32);
    }
    // Compute with both moduli; cross-check small path against naive.
    uint64_t naive_small = 0;
    for (int i = 0; i < len; ++i)
        naive_small = (naive_small + a[i] * b[i]) % small_m;
    EXPECT_EQ(modularDot(a.data(), b.data(), len, small_m), naive_small);

    uint64_t naive_large = 0;
    for (int i = 0; i < len; ++i)
        naive_large = (naive_large + a[i] * b[i]) % large_m;
    EXPECT_EQ(modularDot(a.data(), b.data(), len, large_m), naive_large);
}

TEST(ModularDot, OverflowEdgeAtSmallPathBounds)
{
    // The raw-accumulation fast path is gated on modulus < 2^21 and
    // len < 2^22; at the extreme admissible corner (maximal residues of the
    // largest small-path modulus, longest dot) the 64-bit accumulator is
    // within a factor ~2 of wrapping. Exercise exactly that corner with a
    // length big enough that a wrong bound would produce a detectably
    // wrong remainder, and cross-check against the always-safe mulMod path
    // via a modulus just past the gate.
    const uint64_t m_small = (uint64_t{1} << 21) - 1; // largest fast-path m
    const uint64_t m_large = uint64_t{1} << 21;       // forces safe path
    const int len = 1 << 14;
    const Residue max_r = m_small - 1;
    std::vector<Residue> a(static_cast<size_t>(len), max_r);
    std::vector<Residue> b(static_cast<size_t>(len), max_r);

    // len * (m-1)^2 for the fast path: must fit in 64 bits (the bound the
    // debug assert proves per call).
    const uint64_t prod = max_r * max_r;
    ASSERT_LE(static_cast<uint64_t>(len), UINT64_MAX / prod);

    // Closed form: len * (m-1)^2 mod m, with (m-1)^2 ≡ 1 (mod m).
    obs::fidelity::resetForTest();
    EXPECT_EQ(modularDot(a.data(), b.data(), len, m_small),
              static_cast<uint64_t>(len) % m_small);

    // The always-on margin accounting (the promoted debug assert) must
    // have observed exactly this corner: worst = (2^21-2)^2 * 2^14 uses
    // 56 of 64 accumulator bits, leaving 8 bits of headroom.
    const obs::Gauge *margin = obs::MetricsRegistry::global().findGauge(
        "fidelity.rns.overflow_margin_min");
    ASSERT_NE(margin, nullptr);
    EXPECT_EQ(margin->value(), 8);
    const obs::Counter *checks = obs::MetricsRegistry::global().findCounter(
        "fidelity.rns.dot_checks");
    ASSERT_NE(checks, nullptr);
    EXPECT_GE(checks->value(), 1u);
    const obs::Counter *risk = obs::MetricsRegistry::global().findCounter(
        "fidelity.rns.overflow_risk");
    ASSERT_NE(risk, nullptr);
    EXPECT_EQ(risk->value(), 0u);

    // Safe-path modulus with residues m_small - 1: same closed form via
    // ((m_large - 2)^2 mod m_large) = 4 per term.
    EXPECT_EQ(modularDot(a.data(), b.data(), len, m_large),
              (4 * static_cast<uint64_t>(len)) % m_large);
}

/** Property sweep: GEMM over several special sets and shapes. */
class RnsGemmSweep : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RnsGemmSweep, ResidueGemmMatchesInt64)
{
    const auto [k_param, g] = GetParam();
    const ModuliSet set = ModuliSet::special(k_param);
    const int bm = (k_param == 4) ? 3 : (k_param == 5 ? 4 : 5);
    ASSERT_TRUE(set.canHoldDotProduct(bm, g));

    Rng rng(100 + k_param * 10 + g);
    const RnsGemmEngine engine(set);
    const int m = 4, n = 3;
    const int64_t q_max = (1 << bm) - 1;
    const auto a = mirage::test::randomIntVector(
        rng, static_cast<size_t>(m) * g, -q_max, q_max);
    const auto b = mirage::test::randomIntVector(
        rng, static_cast<size_t>(g) * n, -q_max, q_max);
    // The engine also cross-checks internally; compare the whole result
    // against the golden int64 GEMM.
    const auto c = engine.gemm(a, b, m, g, n);
    EXPECT_EQ(c, mirage::test::referenceGemm(a, b, m, g, n));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSets, RnsGemmSweep,
    // (k, g) pairs respecting Eq. (13) for bm(k) = {3, 4, 5}: k = 4 only
    // reaches g = 16 with bm = 3 (log2 M = 11.99 < 12 needed at g = 32).
    testing::Values(std::tuple<int, int>{4, 4}, std::tuple<int, int>{4, 16},
                    std::tuple<int, int>{5, 4}, std::tuple<int, int>{5, 16},
                    std::tuple<int, int>{5, 32}, std::tuple<int, int>{6, 16},
                    std::tuple<int, int>{6, 32}, std::tuple<int, int>{6, 64}),
    [](const testing::TestParamInfo<std::tuple<int, int>> &info) {
        std::string name = "k";
        name += std::to_string(std::get<0>(info.param));
        name += "_g";
        name += std::to_string(std::get<1>(info.param));
        return name;
    });

} // namespace
} // namespace rns
} // namespace mirage
