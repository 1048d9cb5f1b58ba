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
#include <cfloat>
#include <string>

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
    // Both packed encoders against per-group encodeBlock: every rounding
    // mode, group sizes that leave a ragged last chunk, a column count off
    // the 8-lane vector step, and groups of edge values. Stochastic
    // rounding follows the documented substreams: one base drawn from the
    // caller's rng per operand, Rng::stream(base, row or column) per line.
    const int m = 5, k = 37, n = 21;
    // Group contents by kind: normals, all +-0, subnormals only (the
    // biased-exponent-0 exponent branch), near FLT_MAX, and values that
    // round to 2^bm (Nearest clips them to 2^bm - 1) or to -2^bm (the
    // bottom of the mantissa range).
    const auto value = [&](int kind, int t) -> float {
        switch (kind % 6) {
          case 0: return static_cast<float>(rng.gaussian());
          case 1: return t % 2 ? -0.0f : 0.0f;
          case 2: return static_cast<float>(rng.gaussian(0.0, 1e-41));
          case 3:
            return t % 3 == 0 ? (t % 2 ? -FLT_MAX : FLT_MAX)
                              : static_cast<float>(rng.gaussian(0.0, 1e37));
          case 4: {
            const float edges[] = {0.999f, -0.999f, 0.97f, -0.97f};
            return t < 4 ? edges[t]
                         : static_cast<float>(rng.uniformReal(-0.9, 0.9));
          }
          default:
            return rng.uniformReal() < 0.5
                       ? static_cast<float>(rng.gaussian(0.0, 1e-40))
                       : static_cast<float>(rng.gaussian());
        }
    };

    for (const bfp::Rounding mode :
         {bfp::Rounding::Truncate, bfp::Rounding::Nearest,
          bfp::Rounding::Stochastic}) {
        for (const int g : {16, 13, 32}) {
            const bfp::BfpConfig cfg{4, g, mode};
            const int chunks = (k + g - 1) / g;
            std::vector<float> a(static_cast<size_t>(m) * k);
            std::vector<float> b(static_cast<size_t>(k) * n);
            for (int r = 0; r < m; ++r)
                for (int kk = 0; kk < k; ++kk)
                    a[static_cast<size_t>(r) * k + kk] =
                        value(r + kk / g, kk % g);
            for (int kk = 0; kk < k; ++kk)
                for (int j = 0; j < n; ++j)
                    b[static_cast<size_t>(kk) * n + j] =
                        value(j + 2 * (kk / g), kk % g);

            Rng rows_rng(5), cols_rng(6);
            Workspace ws;
            Workspace::Scope scope(ws);
            const bfp::BfpPackedMatrix rows =
                bfp::encodeRowsPacked(a, m, k, cfg, ws, &rows_rng);
            const bfp::BfpColumnPanels cols =
                bfp::encodeColsPacked(b, k, n, cfg, ws, &cols_rng);
            ASSERT_EQ(rows.chunk_count, chunks);
            ASSERT_EQ(cols.chunk_count, chunks);

            const bool stochastic = mode == bfp::Rounding::Stochastic;
            Rng rows_ref(5), cols_ref(6);
            const uint64_t row_base = stochastic ? rows_ref.nextU64() : 0;
            const uint64_t col_base = stochastic ? cols_ref.nextU64() : 0;
            const std::string where = std::string(bfp::toString(mode)) +
                                      " g=" + std::to_string(g);

            for (int r = 0; r < m; ++r) {
                Rng stream = Rng::stream(row_base, static_cast<uint64_t>(r));
                for (int c = 0; c < chunks; ++c) {
                    const int start = c * g;
                    const int len = std::min(g, k - start);
                    const bfp::BfpBlock blk = bfp::encodeBlock(
                        std::span<const float>(
                            &a[static_cast<size_t>(r) * k + start],
                            static_cast<size_t>(len)),
                        cfg, stochastic ? &stream : nullptr);
                    EXPECT_EQ(blk.exponent, rows.exponent(r, c)) << where;
                    const int32_t *pm = rows.chunk(r, c);
                    for (int t = 0; t < g; ++t)
                        EXPECT_EQ(pm[t], t < len ? blk.mantissas[t] : 0)
                            << where << " row " << r << "," << c << "," << t;
                }
            }
            for (int j = 0; j < n; ++j) {
                Rng stream = Rng::stream(col_base, static_cast<uint64_t>(j));
                for (int c = 0; c < chunks; ++c) {
                    const int start = c * g;
                    const int len = std::min(g, k - start);
                    std::vector<float> col(static_cast<size_t>(len));
                    for (int t = 0; t < len; ++t)
                        col[t] = b[static_cast<size_t>(start + t) * n + j];
                    const bfp::BfpBlock blk = bfp::encodeBlock(
                        col, cfg, stochastic ? &stream : nullptr);
                    EXPECT_EQ(blk.exponent, cols.exponent(j, c)) << where;
                    const int32_t *panel = cols.panel(c);
                    for (int t = 0; t < g; ++t)
                        EXPECT_EQ(panel[static_cast<size_t>(t) * n + j],
                                  t < len ? blk.mantissas[t] : 0)
                            << where << " col " << j << "," << c << "," << t;
                }
            }
            // Each encoder drew its one base value and nothing more.
            EXPECT_EQ(rows_rng.nextU64(), rows_ref.nextU64()) << where;
            EXPECT_EQ(cols_rng.nextU64(), cols_ref.nextU64()) << where;
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
