/**
 * @file
 * Bit-equality tests for the span (allocation-free) GEMM APIs against the
 * legacy vector APIs, across every backend: format emulation (all data
 * formats), BFP/RNS, modular GEMM, the RNS GEMM engine, the photonic
 * MMVMU pipeline, and the PhotonicBackend. The span overloads are the hot
 * path; these tests pin the refactor to "same bits, fewer allocations".
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "bfp/bfp_gemm.h"
#include "common/workspace.h"
#include "nn/gemm_backend.h"
#include "photonic/mmvmu.h"
#include "rns/modular_gemm.h"
#include "test_support.h"

namespace mirage {
namespace {

using nn::FormatBackend;
using nn::PhotonicBackend;
using numerics::DataFormat;

class GemmSpanTest : public test::SeededTest
{
  protected:
    std::vector<float>
    randomMatrix(int rows, int cols, float scale = 1.0f)
    {
        std::vector<float> m(static_cast<size_t>(rows) * cols);
        for (auto &v : m)
            v = static_cast<float>(rng.gaussian(0.0, scale));
        return m;
    }
};

TEST_F(GemmSpanTest, FormatBackendsMatchVectorApiBitExactly)
{
    const int m = 9, k = 33, n = 7; // deliberately non-multiples of 4
    const std::vector<float> a = randomMatrix(m, k);
    const std::vector<float> b = randomMatrix(k, n);

    for (DataFormat fmt :
         {DataFormat::FP32, DataFormat::BFLOAT16, DataFormat::HFP8,
          DataFormat::INT8, DataFormat::INT12, DataFormat::FMAC,
          DataFormat::MirageBfpRns}) {
        numerics::FormatGemmConfig cfg;
        cfg.moduli = test::paperModuli();
        // Same seed on both sides: stochastic-rounding formats must draw
        // the identical stream through both entry points.
        FormatBackend vec_backend(fmt, cfg, 42);
        FormatBackend span_backend(fmt, cfg, 42);

        const std::vector<float> c_vec =
            vec_backend.gemm(a, b, m, k, n, false, false);
        std::vector<float> c_span(static_cast<size_t>(m) * n, -1.0f);
        span_backend.gemm(std::span<const float>(a),
                          std::span<const float>(b), m, k, n, false, false,
                          std::span<float>(c_span));
        for (size_t i = 0; i < c_vec.size(); ++i)
            EXPECT_EQ(c_vec[i], c_span[i])
                << numerics::toString(fmt) << " @" << i;
    }
}

TEST_F(GemmSpanTest, FormatBackendGradFlagsCarryThroughSpanApi)
{
    // Values above E4M3 max must survive only through the gradient (E5M2)
    // format — same contract as the vector API.
    const std::vector<float> a = {1000.0f};
    const std::vector<float> b = {1.0f};
    FormatBackend backend(DataFormat::HFP8, {}, 1);
    std::vector<float> out(1);
    backend.gemm(std::span<const float>(a), std::span<const float>(b), 1, 1,
                 1, false, false, std::span<float>(out));
    EXPECT_FLOAT_EQ(out[0], 448.0f);
    backend.gemm(std::span<const float>(a), std::span<const float>(b), 1, 1,
                 1, true, false, std::span<float>(out));
    EXPECT_FLOAT_EQ(out[0], 1024.0f);
}

TEST_F(GemmSpanTest, BfpGemmSpanMatchesVector)
{
    const int m = 6, k = 40, n = 5;
    const std::vector<float> a = randomMatrix(m, k);
    const std::vector<float> b = randomMatrix(k, n);
    for (const bool with_moduli : {false, true}) {
        // Stochastic rounding exercises the packed encoders' per-row
        // substreams; both sides must consume identical rng state.
        bfp::BfpGemmOptions opts;
        opts.config = {4, 16, bfp::Rounding::Stochastic};
        if (with_moduli)
            opts.moduli = test::paperModuli();
        Rng rng_vec(7), rng_span(7);

        opts.rng = &rng_vec;
        const std::vector<float> c_vec = bfp::bfpGemm(a, b, m, k, n, opts);

        opts.rng = &rng_span;
        std::vector<float> c_span(static_cast<size_t>(m) * n);
        bfp::bfpGemm(std::span<const float>(a), std::span<const float>(b),
                     std::span<float>(c_span), m, k, n, opts);
        for (size_t i = 0; i < c_vec.size(); ++i)
            EXPECT_EQ(c_vec[i], c_span[i])
                << (with_moduli ? "rns" : "plain") << " @" << i;
        // Both paths must leave the caller rng in the same state.
        EXPECT_EQ(rng_vec.nextU64(), rng_span.nextU64());
    }
}

TEST_F(GemmSpanTest, PackedEncodeMatchesBlockEncode)
{
    const int m = 5, k = 37; // ragged tail chunk
    const std::vector<float> a = randomMatrix(m, k);
    const bfp::BfpConfig cfg{4, 16, bfp::Rounding::Nearest};

    Workspace ws;
    Workspace::Scope scope(ws);
    const bfp::BfpPackedMatrix packed =
        bfp::encodeRowsPacked(a, m, k, cfg, ws);

    ASSERT_EQ(packed.chunk_count, 3);
    for (int r = 0; r < m; ++r) {
        for (int c = 0; c < packed.chunk_count; ++c) {
            const int start = c * cfg.g;
            const int len = std::min(cfg.g, k - start);
            const bfp::BfpBlock blk = bfp::encodeBlock(
                std::span<const float>(&a[static_cast<size_t>(r) * k + start],
                                       static_cast<size_t>(len)),
                cfg);
            EXPECT_EQ(blk.exponent, packed.exponent(r, c));
            const int32_t *pm = packed.chunk(r, c);
            for (int t = 0; t < cfg.g; ++t) {
                const int32_t expect =
                    t < len ? blk.mantissas[static_cast<size_t>(t)]
                            : 0; // packed tail is zero-padded
                EXPECT_EQ(pm[t], expect) << r << "," << c << "," << t;
            }
        }
    }
}

TEST_F(GemmSpanTest, ModularGemmSpanMatchesVector)
{
    const int m = 11, k = 23, n = 9;
    std::vector<rns::Residue> a(static_cast<size_t>(m) * k),
        b(static_cast<size_t>(k) * n);
    for (auto &v : a)
        v = static_cast<rns::Residue>(rng.uniformInt(0, 30));
    for (auto &v : b)
        v = static_cast<rns::Residue>(rng.uniformInt(0, 30));

    std::vector<rns::Residue> c_vec;
    rns::modularGemm(a, b, c_vec, m, k, n, 31);

    std::vector<rns::Residue> c_span(static_cast<size_t>(m) * n, 999);
    rns::modularGemm(std::span<const rns::Residue>(a),
                     std::span<const rns::Residue>(b),
                     std::span<rns::Residue>(c_span), m, k, n, 31);
    EXPECT_EQ(c_vec, c_span);

    // And both must agree with the reference dot products.
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
            uint64_t expect = 0;
            for (int kk = 0; kk < k; ++kk)
                expect += a[static_cast<size_t>(i) * k + kk] *
                          b[static_cast<size_t>(kk) * n + j];
            EXPECT_EQ(c_vec[static_cast<size_t>(i) * n + j], expect % 31);
        }
}

TEST_F(GemmSpanTest, RnsGemmEngineSpanMatchesVector)
{
    const rns::RnsGemmEngine engine(test::paperModuli());
    const int m = 4, k = 16, n = 3;
    std::vector<int64_t> a(static_cast<size_t>(m) * k),
        b(static_cast<size_t>(k) * n);
    for (auto &v : a)
        v = rng.uniformInt(-15, 15);
    for (auto &v : b)
        v = rng.uniformInt(-15, 15);

    const std::vector<int64_t> c_vec = engine.gemm(a, b, m, k, n);
    std::vector<int64_t> c_span(static_cast<size_t>(m) * n);
    engine.gemm(std::span<const int64_t>(a), std::span<const int64_t>(b),
                std::span<int64_t>(c_span), m, k, n);
    EXPECT_EQ(c_vec, c_span);
}

TEST_F(GemmSpanTest, RnsMmvmuSpanMvmMatchesVector)
{
    const photonic::DeviceKit kit;
    photonic::RnsMmvmu array(rns::ModuliSet::special(5), 8, 16, kit, 10e9);
    std::vector<int64_t> tile(8 * 16);
    for (auto &v : tile)
        v = rng.uniformInt(-15, 15);
    array.programTile(tile, 8, 16);
    std::vector<int64_t> x(16);
    for (auto &v : x)
        v = rng.uniformInt(-15, 15);

    const std::vector<int64_t> y_vec = array.mvm(x);
    std::vector<int64_t> y_span(8, -1);
    array.mvm(std::span<const int64_t>(x), nullptr,
              std::span<int64_t>(y_span));
    EXPECT_EQ(y_vec, y_span);
}

TEST_F(GemmSpanTest, PhotonicBackendSpanMatchesVectorApi)
{
    const int m = 5, k = 20, n = 4;
    const std::vector<float> a = randomMatrix(m, k, 0.5f);
    const std::vector<float> b = randomMatrix(k, n, 0.5f);
    PhotonicBackend vec_backend(4, 16, 5, 8, {}, 3);
    PhotonicBackend span_backend(4, 16, 5, 8, {}, 3);

    const std::vector<float> c_vec =
        vec_backend.gemm(a, b, m, k, n, false, false);
    std::vector<float> c_span(static_cast<size_t>(m) * n);
    span_backend.gemm(std::span<const float>(a), std::span<const float>(b),
                      m, k, n, false, false, std::span<float>(c_span));
    for (size_t i = 0; i < c_vec.size(); ++i)
        EXPECT_EQ(c_vec[i], c_span[i]) << i;
}

TEST_F(GemmSpanTest, NoisyPhotonicBackendSpanMatchesVectorApi)
{
    photonic::PhotonicNoiseConfig noise;
    noise.shot_thermal_enabled = true;
    const int m = 4, k = 16, n = 3;
    const std::vector<float> a = randomMatrix(m, k, 0.5f);
    const std::vector<float> b = randomMatrix(k, n, 0.5f);
    PhotonicBackend vec_backend(4, 16, 5, 8, noise, 11);
    PhotonicBackend span_backend(4, 16, 5, 8, noise, 11);

    const std::vector<float> c_vec =
        vec_backend.gemm(a, b, m, k, n, false, false);
    std::vector<float> c_span(static_cast<size_t>(m) * n);
    span_backend.gemm(std::span<const float>(a), std::span<const float>(b),
                      m, k, n, false, false, std::span<float>(c_span));
    for (size_t i = 0; i < c_vec.size(); ++i)
        EXPECT_EQ(c_vec[i], c_span[i]) << i;
}

} // namespace
} // namespace mirage
