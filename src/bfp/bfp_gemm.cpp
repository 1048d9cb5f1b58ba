#include "bfp/bfp_gemm.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "obs/fidelity.h"
#include "rns/conversion.h"
#include "runtime/thread_pool.h"

namespace mirage {
namespace bfp {

namespace {

/// Rows per parallelFor block. Fixed (never derived from the thread count)
/// so the block decomposition — and with it every per-row Rng substream —
/// is identical at every thread count. (Rng substreams are per-row, so the
/// runtime::serialBelow small-workload collapse never changes results.)
constexpr int64_t kEncodeGrain = 8;
constexpr int64_t kComputeGrain = 4;
/// Serial-below cutoffs. Encoding costs tens of cycles per element and the
/// compute loop a few per MAC; below these counts the work finishes faster
/// than the workers wake. (They were 4096/16384 — low enough that tiny
/// layers paid dispatch overhead for microseconds of work, a measurable
/// part of the historical multi-thread slowdown.)
constexpr int64_t kMinEncodeWork = 16384;
constexpr int64_t kMinComputeWork = 65536;

/// Rows of one integer panel (simd::gemmPanel4I32I64).
constexpr int kPanelRows = 4;
/// Output-column tile of the compute loop: keeps the chunk's B panel slice
/// and the integer sums L1-resident for large n. Tiling never reorders the
/// per-element chunk accumulation, so results are unaffected.
constexpr int kColTile = 64;

} // namespace

BfpPackedMatrix
encodeRowsPacked(std::span<const float> a, int m_rows, int k_depth,
                 const BfpConfig &cfg, Workspace &ws, Rng *rng)
{
    MIRAGE_ASSERT(a.size() == static_cast<size_t>(m_rows) * k_depth,
                  "matrix shape mismatch");
    BfpPackedMatrix out;
    out.rows = m_rows;
    out.g = cfg.g;
    out.chunk_count = static_cast<int>(ceilDiv(k_depth, cfg.g));
    const size_t blocks = static_cast<size_t>(m_rows) * out.chunk_count;
    out.mantissas = ws.zeroed<int32_t>(blocks * cfg.g);
    out.exponents = ws.alloc<int32_t>(blocks);
    // Stochastic rounding draws from a per-row substream (split of one base
    // value drawn from the caller's rng), so encoding stays bit-identical
    // for every thread count and deterministic rounding never consumes rng.
    const bool stochastic =
        rng != nullptr && cfg.rounding == Rounding::Stochastic;
    const uint64_t base = stochastic ? rng->nextU64() : 0;
    runtime::parallelFor(
        m_rows,
        runtime::serialBelow(m_rows, kEncodeGrain,
                             static_cast<int64_t>(m_rows) * k_depth,
                             kMinEncodeWork),
        [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
                std::optional<Rng> row_rng;
                if (stochastic)
                    row_rng.emplace(
                        Rng::stream(base, static_cast<uint64_t>(i)));
                Rng *row_rng_p = row_rng ? &*row_rng : nullptr;
                for (int c = 0; c < out.chunk_count; ++c) {
                    const int start = c * cfg.g;
                    const int len = std::min(cfg.g, k_depth - start);
                    const size_t blk =
                        static_cast<size_t>(i) * out.chunk_count + c;
                    out.exponents[blk] = encodeGroupInto(
                        a.subspan(static_cast<size_t>(i) * k_depth + start,
                                  static_cast<size_t>(len)),
                        cfg,
                        out.mantissas.subspan(blk * cfg.g,
                                              static_cast<size_t>(len)),
                        row_rng_p);
                }
            }
        });
    return out;
}

BfpPackedMatrix
encodeColsPacked(std::span<const float> b, int k_depth, int n_cols,
                 const BfpConfig &cfg, Workspace &ws, Rng *rng)
{
    MIRAGE_ASSERT(b.size() == static_cast<size_t>(k_depth) * n_cols,
                  "matrix shape mismatch");
    BfpPackedMatrix out;
    out.rows = n_cols;
    out.g = cfg.g;
    out.chunk_count = static_cast<int>(ceilDiv(k_depth, cfg.g));
    const size_t blocks = static_cast<size_t>(n_cols) * out.chunk_count;
    out.mantissas = ws.zeroed<int32_t>(blocks * cfg.g);
    out.exponents = ws.alloc<int32_t>(blocks);
    const bool stochastic =
        rng != nullptr && cfg.rounding == Rounding::Stochastic;
    const uint64_t base = stochastic ? rng->nextU64() : 0;
    runtime::parallelFor(
        n_cols,
        runtime::serialBelow(n_cols, kEncodeGrain,
                             static_cast<int64_t>(k_depth) * n_cols,
                             kMinEncodeWork),
        [&](int64_t j0, int64_t j1) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            std::span<float> group_buf =
                tws.alloc<float>(static_cast<size_t>(cfg.g));
            for (int64_t j = j0; j < j1; ++j) {
                std::optional<Rng> col_rng;
                if (stochastic)
                    col_rng.emplace(
                        Rng::stream(base, static_cast<uint64_t>(j)));
                Rng *col_rng_p = col_rng ? &*col_rng : nullptr;
                for (int c = 0; c < out.chunk_count; ++c) {
                    const int start = c * cfg.g;
                    const int len = std::min(cfg.g, k_depth - start);
                    for (int t = 0; t < len; ++t)
                        group_buf[static_cast<size_t>(t)] =
                            b[static_cast<size_t>(start + t) * n_cols + j];
                    const size_t blk =
                        static_cast<size_t>(j) * out.chunk_count + c;
                    out.exponents[blk] = encodeGroupInto(
                        std::span<const float>(group_buf.data(),
                                               static_cast<size_t>(len)),
                        cfg,
                        out.mantissas.subspan(blk * cfg.g,
                                              static_cast<size_t>(len)),
                        col_rng_p);
                }
            }
        });
    return out;
}

namespace {

void
requireEq13(const rns::ModuliSet &set, const BfpConfig &cfg)
{
    if (!set.canHoldDotProduct(cfg.bm, cfg.g)) {
        MIRAGE_FATAL("moduli set (log2 M = ", set.log2DynamicRange(),
                     ") cannot hold BFP dot products of bm=", cfg.bm,
                     " g=", cfg.g, " (Eq. 13)");
    }
}

/**
 * 2^e built from its IEEE-754 bit pattern; equal to std::ldexp(1.0, e) for
 * normal exponents e in [-1022, 1023]. Chunk scales stay far inside that:
 * shared exponents lie in [-148, 128] (frexp of finite floats) and bm >= 1,
 * so e = ea + eb - 2 bm is in [-326, 254].
 */
double
exactPow2(int e)
{
    return std::bit_cast<double>(static_cast<uint64_t>(e + 1023) << 52);
}

/**
 * True when every chunk dot over this set can accumulate raw 64-bit
 * products without overflow (the modularDot small-path bound).
 */
bool
rawAccumulationSafe(const rns::ModuliSet &set, int g)
{
    if (g >= (1 << 22))
        return false;
    for (size_t i = 0; i < set.count(); ++i)
        if (set.modulus(i) >= (uint64_t{1} << 21))
            return false;
    return true;
}

/**
 * Forward-converts a packed mantissa plane to per-modulus residue planes
 * (uint32, layout identical to the mantissa plane), once per matrix.
 */
std::span<uint32_t>
residuePlanes(const BfpPackedMatrix &m, const rns::ModuliSet &set,
              Workspace &ws)
{
    const size_t plane =
        static_cast<size_t>(m.rows) * m.chunk_count * m.g;
    std::span<uint32_t> planes = ws.alloc<uint32_t>(set.count() * plane);
    runtime::parallelFor(
        m.rows,
        runtime::serialBelow(m.rows, kEncodeGrain,
                             static_cast<int64_t>(set.count()) * plane,
                             kMinEncodeWork),
        [&](int64_t r0, int64_t r1) {
            const size_t row_elems =
                static_cast<size_t>(m.chunk_count) * m.g;
            for (size_t mi = 0; mi < set.count(); ++mi) {
                const uint64_t mod = set.modulus(mi);
                uint32_t *dst = &planes[mi * plane];
                for (int64_t r = r0; r < r1; ++r)
                    for (size_t e = 0; e < row_elems; ++e) {
                        const size_t idx =
                            static_cast<size_t>(r) * row_elems + e;
                        dst[idx] = static_cast<uint32_t>(
                            rns::reduceSigned(m.mantissas[idx], mod));
                    }
            }
        });
    return planes;
}

} // namespace

void
bfpGemm(std::span<const float> a, std::span<const float> b,
        std::span<float> c, int m_rows, int k_depth, int n_cols,
        const BfpConfig &cfg, const rns::RnsCodec *codec, Rng *rng)
{
    cfg.validate();
    MIRAGE_ASSERT(c.size() == static_cast<size_t>(m_rows) * n_cols,
                  "C shape mismatch");
    // Eq. (13) keeps every chunk dot inside the set's signed range, so the
    // RNS round trip (forward conversion, modular dots, CRT decode) returns
    // the integer dot exactly; the check is all the codec contributes.
    if (codec)
        requireEq13(codec->set(), cfg);

    // Encodings live in the caller's arena for the duration of this GEMM;
    // the rng base draws happen rows first, then cols.
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    const BfpPackedMatrix a_enc =
        encodeRowsPacked(a, m_rows, k_depth, cfg, ws, rng);
    const BfpPackedMatrix b_enc =
        encodeColsPacked(b, k_depth, n_cols, cfg, ws, rng);

    const int chunks = a_enc.chunk_count;
    const int g = cfg.g;
    const size_t n = static_cast<size_t>(n_cols);

    // B regrouped K-major, one g x n panel per chunk (the layout the panel
    // kernel streams), with its exponents pre-offset by the 2 bm mantissa
    // scale. Zero-padded tail rows contribute nothing to the integer dots.
    std::span<int32_t> b_panels =
        ws.alloc<int32_t>(static_cast<size_t>(chunks) * g * n);
    std::span<int32_t> b_exps = ws.alloc<int32_t>(chunks * n);
    for (int j = 0; j < n_cols; ++j)
        for (int ch = 0; ch < chunks; ++ch) {
            const int32_t *src = b_enc.chunk(j, ch);
            for (int t = 0; t < g; ++t)
                b_panels[(static_cast<size_t>(ch) * g + t) * n + j] = src[t];
            b_exps[ch * n + j] = b_enc.exponent(j, ch) - 2 * cfg.bm;
        }

    // Per 4-row panel and column tile: one exact int32 x int32 -> int64
    // panel GEMM per chunk, then each chunk sum scaled by 2^(ea + eb - 2 bm)
    // and added to its FP32 output in ascending chunk order. |sum| <=
    // g 2^(2 bm) <= 2^50 and the scale is a normal power of two, so the
    // double product is exact — the same value std::ldexp gives — and every
    // output sees the float operations of a per-element loop. Output rows
    // are independent and rng-free, so the parallel result is bit-identical
    // to serial execution.
    const int64_t lda = static_cast<int64_t>(chunks) * g;
    const int64_t panels = ceilDiv(m_rows, kPanelRows);
    runtime::parallelFor(
        panels,
        runtime::serialBelow(panels, 1,
                             static_cast<int64_t>(m_rows) * k_depth * n_cols,
                             kMinComputeWork),
        [&](int64_t p0, int64_t p1) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            std::span<int64_t> sums = tws.alloc<int64_t>(
                static_cast<size_t>(kPanelRows) * std::min(kColTile, n_cols));
            for (int64_t p = p0; p < p1; ++p) {
                const int i0 = static_cast<int>(p) * kPanelRows;
                const int rows = std::min(kPanelRows, m_rows - i0);
                const int32_t *a_panel =
                    a_enc.mantissas.data() + static_cast<size_t>(i0) * lda;
                if (rows < kPanelRows) {
                    // Ragged last panel: zero rows, which the kernel skips.
                    std::span<int32_t> padded = tws.zeroed<int32_t>(
                        static_cast<size_t>(kPanelRows * lda));
                    std::copy_n(a_panel, rows * lda, padded.data());
                    a_panel = padded.data();
                }
                for (int j0 = 0; j0 < n_cols; j0 += kColTile) {
                    const int jt = std::min(kColTile, n_cols - j0);
                    for (int r = 0; r < rows; ++r)
                        std::fill_n(&c[(i0 + r) * n + j0], jt, 0.0f);
                    for (int ch = 0; ch < chunks; ++ch) {
                        std::fill_n(sums.data(), kPanelRows * jt, int64_t{0});
                        simd::gemmPanel4I32I64(
                            a_panel + static_cast<size_t>(ch) * g, lda,
                            &b_panels[static_cast<size_t>(ch) * g * n + j0],
                            n_cols, g, sums.data(), jt);
                        const int32_t *eb = &b_exps[ch * n + j0];
                        for (int r = 0; r < rows; ++r) {
                            const int ea = a_enc.exponent(i0 + r, ch);
                            const int64_t *row =
                                &sums[static_cast<size_t>(r) * jt];
                            float *out = &c[(i0 + r) * n + j0];
                            for (int j = 0; j < jt; ++j)
                                out[j] += static_cast<float>(
                                    static_cast<double>(row[j]) *
                                    exactPow2(ea + eb[j]));
                        }
                    }
                }
            }
        });
}

void
bfpGemmRnsReference(std::span<const float> a, std::span<const float> b,
                    std::span<float> c, int m_rows, int k_depth, int n_cols,
                    const BfpConfig &cfg, const rns::RnsCodec &codec,
                    Rng *rng)
{
    cfg.validate();
    MIRAGE_ASSERT(c.size() == static_cast<size_t>(m_rows) * n_cols,
                  "C shape mismatch");
    const rns::ModuliSet &set = codec.set();
    requireEq13(set, cfg);

    // Same encodings, drawn from rng in the same order, as bfpGemm.
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    const BfpPackedMatrix a_enc =
        encodeRowsPacked(a, m_rows, k_depth, cfg, ws, rng);
    const BfpPackedMatrix b_enc =
        encodeColsPacked(b, k_depth, n_cols, cfg, ws, rng);

    const int chunks = a_enc.chunk_count;
    const int g = cfg.g;
    const int bm = cfg.bm;
    const size_t n_moduli = set.count();

    // Small moduli: forward-convert both planes once, then every chunk dot
    // raw-accumulates g residue products per modulus; one overflow-margin
    // observation per (GEMM, modulus) covers them all.
    const bool raw_safe = rawAccumulationSafe(set, g);
    std::span<uint32_t> a_planes, b_planes;
    if (raw_safe) {
        for (size_t mi = 0; mi < n_moduli; ++mi)
            obs::fidelity::recordRnsMargin(set.modulus(mi), g);
        a_planes = residuePlanes(a_enc, set, ws);
        b_planes = residuePlanes(b_enc, set, ws);
    } else {
        obs::fidelity::noteRnsReducedFallback();
    }
    const size_t a_plane_sz = static_cast<size_t>(m_rows) * chunks * g;
    const size_t b_plane_sz = static_cast<size_t>(n_cols) * chunks * g;

    runtime::parallelFor(
        m_rows,
        runtime::serialBelow(m_rows, kComputeGrain,
                             static_cast<int64_t>(m_rows) * k_depth * n_cols,
                             kMinComputeWork),
        [&](int64_t i0, int64_t i1) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            std::span<rns::Residue> digits = tws.alloc<rns::Residue>(n_moduli);
            for (int64_t i = i0; i < i1; ++i) {
                for (int j = 0; j < n_cols; ++j) {
                    float acc = 0.0f; // FP32 partial-output accumulation
                    for (int ch = 0; ch < chunks; ++ch) {
                        const size_t a_off =
                            (static_cast<size_t>(i) * chunks + ch) *
                            static_cast<size_t>(g);
                        const size_t b_off =
                            (static_cast<size_t>(j) * chunks + ch) *
                            static_cast<size_t>(g);
                        for (size_t mi = 0; mi < n_moduli; ++mi) {
                            const uint64_t mod = set.modulus(mi);
                            if (raw_safe) {
                                // Exact u32xu32->u64 dot: residues < 2^21,
                                // g < 2^22 (rawAccumulationSafe).
                                digits[mi] =
                                    simd::dotU32U64(
                                        &a_planes[mi * a_plane_sz + a_off],
                                        &b_planes[mi * b_plane_sz + b_off],
                                        g) %
                                    mod;
                            } else {
                                // Oversized moduli: fully reduced dot
                                // straight off the mantissas.
                                rns::Residue sum = 0;
                                for (int t = 0; t < g; ++t)
                                    sum = rns::addMod(
                                        sum,
                                        rns::mulMod(
                                            rns::reduceSigned(
                                                a_enc.mantissas[a_off + t],
                                                mod),
                                            rns::reduceSigned(
                                                b_enc.mantissas[b_off + t],
                                                mod),
                                            mod),
                                        mod);
                                digits[mi] = sum;
                            }
                        }
                        acc += static_cast<float>(std::ldexp(
                            static_cast<double>(codec.decode(digits)),
                            a_enc.exponent(static_cast<int>(i), ch) +
                                b_enc.exponent(j, ch) - 2 * bm));
                    }
                    c[static_cast<size_t>(i) * n_cols + j] = acc;
                }
            }
        });
}

void
bfpGemm(std::span<const float> a, std::span<const float> b,
        std::span<float> c, int m_rows, int k_depth, int n_cols,
        const BfpGemmOptions &opts)
{
    bfpGemm(a, b, c, m_rows, k_depth, n_cols, opts.config,
            opts.moduli ? &rns::cachedCodec(*opts.moduli) : nullptr,
            opts.rng);
}

std::vector<float>
bfpGemm(const std::vector<float> &a, const std::vector<float> &b,
        int m_rows, int k_depth, int n_cols, const BfpGemmOptions &opts)
{
    std::vector<float> c(static_cast<size_t>(m_rows) * n_cols);
    bfpGemm(std::span<const float>(a), std::span<const float>(b),
            std::span<float>(c), m_rows, k_depth, n_cols, opts);
    return c;
}

} // namespace bfp
} // namespace mirage
