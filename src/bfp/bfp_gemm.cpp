#include "bfp/bfp_gemm.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "obs/fidelity.h"
#include "rns/conversion.h"
#include "runtime/thread_pool.h"

namespace mirage {
namespace bfp {

namespace {

/// Rows, and columns of B, per parallelFor block. Fixed (never derived from
/// the thread count) so the block decomposition is identical at every
/// thread count. (Rng substreams are per row or column, so neither the
/// block size nor the runtime::serialBelow small-workload collapse changes
/// results.) A column block is eight vector steps of the column encoder.
constexpr int64_t kEncodeGrain = 8;
constexpr int64_t kEncodeColGrain = 64;
constexpr int64_t kComputeGrain = 4;

/// Output rows of one fused panel (simd::bfpPanel4).
constexpr int kPanelRows = 4;

/// Serial-below cutoffs of bfpGemmRnsReference's own loops, counted in
/// chunk dots and in residues. Per MAC it costs 100x or more what bfpGemm
/// does, so under kMinComputeWork a replay could stay serial for 5 ms or
/// more. On the 4-vCPU Xeon kMinComputeWork was derived on, over the
/// paper's three-modulus set (special(5)) at g = 16, one chunk dot (a
/// modular dot per modulus and a CRT decode) takes about 150-280 ns, and
/// one mantissa's residue about 4.3 ns (an integer division). 256 chunk
/// dots and 2^13 residues are each about 35-70 us of serial work, as in
/// kMinComputeWork's derivation.
constexpr int64_t kMinReferenceDots = 256;
constexpr int64_t kMinResidueWork = int64_t{1} << 13;

/// Stochastic-rounding substream base of one operand, drawn from the
/// caller's rng only when its draws are used.
std::optional<uint64_t>
streamBase(const BfpConfig &cfg, Rng *rng)
{
    if (rng == nullptr || cfg.rounding != Rounding::Stochastic)
        return std::nullopt;
    return rng->nextU64();
}

/** Row i's stochastic-rounding substream, when the operand has a base. */
std::optional<Rng>
rowStream(std::optional<uint64_t> stream_base, int64_t i)
{
    if (!stream_base)
        return std::nullopt;
    return Rng::stream(*stream_base, static_cast<uint64_t>(i));
}

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
    const size_t lda = static_cast<size_t>(out.chunk_count) * cfg.g;
    out.mantissas = ws.alloc<int32_t>(m_rows * lda);
    out.exponents =
        ws.alloc<int32_t>(static_cast<size_t>(m_rows) * out.chunk_count);
    const std::optional<uint64_t> base = streamBase(cfg, rng);
    runtime::parallelFor(
        m_rows,
        runtime::serialBelow(m_rows, kEncodeGrain,
                             static_cast<int64_t>(m_rows) * k_depth,
                             kMinEncodeWork),
        [&](int64_t r0, int64_t r1) {
            obs::fidelity::BfpGroupTally tally;
            for (int64_t i = r0; i < r1; ++i) {
                std::optional<Rng> stream = rowStream(base, i);
                std::span<int32_t> row = out.mantissas.subspan(i * lda, lda);
                encodeRowInto(a.subspan(i * k_depth, k_depth), cfg,
                              row.first(k_depth),
                              out.exponents.subspan(i * out.chunk_count,
                                                    out.chunk_count),
                              stream ? &*stream : nullptr, tally);
                std::fill(row.begin() + k_depth, row.end(), 0);
            }
            tally.flush();
        });
    return out;
}

BfpColumnPanels
encodeColsPacked(std::span<const float> b, int k_depth, int n_cols,
                 const BfpConfig &cfg, Workspace &ws, Rng *rng)
{
    MIRAGE_ASSERT(b.size() == static_cast<size_t>(k_depth) * n_cols,
                  "matrix shape mismatch");
    BfpColumnPanels out;
    out.cols = n_cols;
    out.g = cfg.g;
    out.chunk_count = static_cast<int>(ceilDiv(k_depth, cfg.g));
    out.mantissas = ws.alloc<int32_t>(static_cast<size_t>(out.chunk_count) *
                                      cfg.g * n_cols);
    out.exponents =
        ws.alloc<int32_t>(static_cast<size_t>(out.chunk_count) * n_cols);
    const std::optional<uint64_t> base = streamBase(cfg, rng);
    runtime::parallelFor(
        n_cols,
        runtime::serialBelow(n_cols, kEncodeColGrain,
                             static_cast<int64_t>(k_depth) * n_cols,
                             kMinEncodeWork),
        [&](int64_t j0, int64_t j1) {
            obs::fidelity::BfpGroupTally tally;
            encodeColumnsInto(b, k_depth, n_cols, static_cast<int>(j0),
                              static_cast<int>(j1), cfg, out.mantissas,
                              out.exponents, base, tally);
            tally.flush();
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
 * Forward-converts a packed mantissa plane of `rows` x `row_elems` to
 * per-modulus residue planes (uint32, layout identical to the mantissa
 * plane), once per matrix.
 */
std::span<uint32_t>
residuePlanes(std::span<const int32_t> mantissas, int rows, size_t row_elems,
              const rns::ModuliSet &set, Workspace &ws)
{
    const size_t plane = mantissas.size();
    std::span<uint32_t> planes = ws.alloc<uint32_t>(set.count() * plane);
    runtime::parallelFor(
        rows,
        runtime::serialBelow(rows, kEncodeGrain,
                             static_cast<int64_t>(set.count() * plane),
                             kMinResidueWork),
        [&](int64_t r0, int64_t r1) {
            for (size_t mi = 0; mi < set.count(); ++mi) {
                const uint64_t mod = set.modulus(mi);
                uint32_t *dst = &planes[mi * plane];
                for (size_t idx = r0 * row_elems; idx < r1 * row_elems; ++idx)
                    dst[idx] = static_cast<uint32_t>(
                        rns::reduceSigned(mantissas[idx], mod));
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
    MIRAGE_ASSERT(a.size() == static_cast<size_t>(m_rows) * k_depth,
                  "matrix shape mismatch");
    MIRAGE_ASSERT(c.size() == static_cast<size_t>(m_rows) * n_cols,
                  "C shape mismatch");
    // Eq. (13) keeps every chunk dot inside the set's signed range, so the
    // RNS round trip (forward conversion, modular dots, CRT decode) returns
    // the integer dot exactly; the check is all the codec contributes.
    if (codec)
        requireEq13(codec->set(), cfg);

    // The rng base draws happen A first, then B, as in encodeRowsPacked
    // followed by encodeColsPacked. B's K-major panels live in the caller's
    // arena for the duration of this GEMM.
    const std::optional<uint64_t> a_base = streamBase(cfg, rng);
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    const BfpColumnPanels b_enc =
        encodeColsPacked(b, k_depth, n_cols, cfg, ws, rng);

    // Per 4-row panel: encode the panel's rows of A straight into the
    // int16 mantissas the fused kernel pairs (|mantissa| <= 2^bm <= 2^15),
    // then one simd::bfpPanel4 call writes the panel's outputs over every
    // chunk. Each chunk dot is exact, is scaled by 2^(ea + eb - 2 bm) and
    // added to its FP32 output in ascending chunk order: |dot| <= g 2^(2 bm)
    // <= 2^50 and the scale is a normal power of two (shared exponents lie
    // in [-148, 128], so ea + eb - 2 bm is in [-326, 254]), so the double
    // product is exact — the same value std::ldexp gives — and the kernel's
    // float route rounds that same product once. Output rows are
    // independent and draw from per-row substreams, so the parallel result
    // is bit-identical to serial execution.
    const int chunks = b_enc.chunk_count;
    const int64_t panels = ceilDiv(m_rows, kPanelRows);
    runtime::parallelFor(
        panels,
        runtime::serialBelow(panels, 1,
                             static_cast<int64_t>(m_rows) * k_depth * n_cols,
                             kMinComputeWork),
        [&](int64_t p0, int64_t p1) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            std::span<int16_t> a_panel =
                tws.alloc<int16_t>(static_cast<size_t>(kPanelRows) * k_depth);
            std::span<int32_t> a_exps =
                tws.alloc<int32_t>(static_cast<size_t>(kPanelRows) * chunks);
            obs::fidelity::BfpGroupTally tally;
            for (int64_t p = p0; p < p1; ++p) {
                const int i0 = static_cast<int>(p) * kPanelRows;
                const int rows = std::min(kPanelRows, m_rows - i0);
                for (int r = 0; r < rows; ++r) {
                    std::optional<Rng> stream = rowStream(a_base, i0 + r);
                    encodeRowInto(a.subspan(static_cast<size_t>(i0 + r) *
                                                k_depth,
                                            k_depth),
                                  cfg, a_panel.subspan(r * k_depth, k_depth),
                                  a_exps.subspan(r * chunks, chunks),
                                  stream ? &*stream : nullptr, tally);
                }
                simd::bfpPanel4(a_panel.data(), k_depth, a_exps.data(),
                                b_enc.mantissas.data(), b_enc.exponents.data(),
                                k_depth, cfg.g, n_cols, cfg.bm,
                                c.data() + static_cast<size_t>(i0) * n_cols,
                                n_cols, rows);
            }
            tally.flush();
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
    const BfpColumnPanels b_enc =
        encodeColsPacked(b, k_depth, n_cols, cfg, ws, rng);

    const int chunks = a_enc.chunk_count;
    const int g = cfg.g;
    const int bm = cfg.bm;
    const size_t n = static_cast<size_t>(n_cols);
    const size_t n_moduli = set.count();

    // Small moduli: forward-convert both planes once, then every chunk dot
    // raw-accumulates g residue products per modulus; one overflow-margin
    // observation per (GEMM, modulus) covers them all.
    const bool raw_safe = rawAccumulationSafe(set, g);
    std::span<uint32_t> a_planes, b_planes;
    if (raw_safe) {
        for (size_t mi = 0; mi < n_moduli; ++mi)
            obs::fidelity::recordRnsMargin(set.modulus(mi), g);
        a_planes = residuePlanes(a_enc.mantissas, m_rows,
                                 static_cast<size_t>(chunks) * g, set, ws);
        b_planes = residuePlanes(b_enc.mantissas, chunks * g, n, set, ws);
    } else {
        obs::fidelity::noteRnsReducedFallback();
    }
    const size_t a_plane_sz = a_enc.mantissas.size();
    const size_t b_plane_sz = b_enc.mantissas.size();

    runtime::parallelFor(
        m_rows,
        runtime::serialBelow(m_rows, kComputeGrain,
                             static_cast<int64_t>(m_rows) * chunks * n_cols,
                             kMinReferenceDots),
        [&](int64_t i0, int64_t i1) {
            Workspace &tws = threadWorkspace();
            Workspace::Scope tscope(tws);
            std::span<rns::Residue> digits = tws.alloc<rns::Residue>(n_moduli);
            for (int64_t i = i0; i < i1; ++i) {
                for (int j = 0; j < n_cols; ++j) {
                    float acc = 0.0f; // FP32 partial-output accumulation
                    for (int ch = 0; ch < chunks; ++ch) {
                        // A's chunk is contiguous; B's runs down column j
                        // of the chunk's K-major panel (stride n).
                        const size_t a_off =
                            (static_cast<size_t>(i) * chunks + ch) *
                            static_cast<size_t>(g);
                        const size_t b_off =
                            static_cast<size_t>(ch) * g * n + j;
                        for (size_t mi = 0; mi < n_moduli; ++mi) {
                            const uint64_t mod = set.modulus(mi);
                            rns::Residue sum = 0;
                            if (raw_safe) {
                                // Exact u32xu32->u64 dot: residues < 2^21,
                                // g < 2^22 (rawAccumulationSafe).
                                const uint32_t *ar =
                                    &a_planes[mi * a_plane_sz + a_off];
                                const uint32_t *br =
                                    &b_planes[mi * b_plane_sz + b_off];
                                for (int t = 0; t < g; ++t)
                                    sum += static_cast<uint64_t>(ar[t]) *
                                           br[t * n];
                                sum %= mod;
                            } else {
                                // Oversized moduli: fully reduced dot
                                // straight off the mantissas.
                                for (int t = 0; t < g; ++t)
                                    sum = rns::addMod(
                                        sum,
                                        rns::mulMod(
                                            rns::reduceSigned(
                                                a_enc.mantissas[a_off + t],
                                                mod),
                                            rns::reduceSigned(
                                                b_enc.mantissas[b_off + t * n],
                                                mod),
                                            mod),
                                        mod);
                            }
                            digits[mi] = sum;
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
