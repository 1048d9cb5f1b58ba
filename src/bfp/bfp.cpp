#include "bfp/bfp.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "common/workspace.h"
#include "obs/fidelity.h"

namespace mirage {
namespace bfp {

const char *
toString(Rounding r)
{
    switch (r) {
      case Rounding::Truncate: return "truncate";
      case Rounding::Nearest: return "nearest";
      case Rounding::Stochastic: return "stochastic";
    }
    return "?";
}

void
BfpConfig::validate() const
{
    if (bm < 1 || bm > 15)
        MIRAGE_FATAL("BFP mantissa bits must be in [1, 15], got ", bm);
    if (g < 1 || g > (1 << 20))
        MIRAGE_FATAL("BFP group size must be in [1, 2^20], got ", g);
}

int
BfpConfig::dotProductBits() const
{
    return 2 * (bm + 1) + static_cast<int>(std::ceil(std::log2(g))) - 1;
}

float
BfpBlock::decode(size_t i, int bm) const
{
    MIRAGE_ASSERT(i < mantissas.size(), "block index out of range");
    return static_cast<float>(std::ldexp(static_cast<double>(mantissas[i]),
                                         exponent - bm));
}

namespace {

/// Column blocks whose stochastic-rounding streams are live at once.
constexpr int kStreamCols = 8;

simd::QuantRound
quantRound(Rounding mode)
{
    switch (mode) {
      case Rounding::Truncate:
        // Hardware truncation drops LSBs of the two's-complement mantissa,
        // which rounds toward -inf (floor) — not toward zero. Toward-zero
        // truncation would systematically shrink gradient magnitudes and
        // stall training.
        return simd::QuantRound::Floor;
      case Rounding::Nearest: return simd::QuantRound::HalfAway;
      case Rounding::Stochastic: return simd::QuantRound::Stochastic;
    }
    MIRAGE_PANIC("unknown rounding mode");
}

/** Fatal when the largest magnitude bits of the encoded groups,
 *  `max_bits`, come from an Inf or NaN. */
void
requireFinite(uint32_t max_bits)
{
    if (max_bits >= simd::kNonFiniteAbsBits)
        MIRAGE_FATAL("non-finite value in BFP group");
}

/**
 * value = q * 2^(e - bm), so q = round(value * 2^(bm - e)). Shared
 * exponents lie in [-148, 128] and bm in [1, 15], so the scale is a normal
 * double and the product is exact (the value std::ldexp gives).
 */
double
mantissaScale(const BfpConfig &cfg, int exponent)
{
    return exactPow2(cfg.bm - exponent);
}

/** Stochastic-rounding uniforms of one group: u[0], u[stride], ... */
void
drawUniforms(Rng *rng, int len, double *u, size_t stride)
{
    MIRAGE_ASSERT(rng != nullptr, "stochastic rounding needs an Rng");
    for (int t = 0; t < len; ++t)
        u[static_cast<size_t>(t) * stride] = rng->uniformReal();
}

/** Notes the `count` shared exponents at e in `tally`. */
void
noteExponents(const int32_t *e, int count,
              obs::fidelity::BfpGroupTally &tally)
{
    for (int i = 0; i < count; ++i)
        tally.note(e[i]);
}

/**
 * Stochastic encodeRowInto: the group exponents first, then one uniform
 * per element of every non-zero group drawn in order, then the double
 * quantizer with one scale per group.
 */
void
encodeRowStochastic(std::span<const float> values, const BfpConfig &cfg,
                    int32_t *mantissas, int32_t *exponents, Rng *rng,
                    obs::fidelity::BfpGroupTally &tally)
{
    const int n = static_cast<int>(values.size());
    const int groups = static_cast<int>(ceilDiv(n, cfg.g));
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    std::span<double> scale = ws.alloc<double>(static_cast<size_t>(groups));
    std::span<double> u = ws.alloc<double>(values.size());
    for (int c = 0; c < groups; ++c) {
        const int start = c * cfg.g;
        const int len = std::min(cfg.g, n - start);
        const uint32_t max_bits = simd::maxAbsBitsF32(&values[start], len);
        requireFinite(max_bits);
        const int e = simd::groupExponent(max_bits);
        exponents[c] = e;
        scale[c] = mantissaScale(cfg, e);
        if (max_bits != 0)
            drawUniforms(rng, len, &u[start], 1);
        else
            std::fill_n(&u[start], len, 0.0);
    }
    noteExponents(exponents, groups, tally);
    // Whole groups quantize as a groups x g block with one scale per row,
    // a ragged last group as one more row. The (bm+1)-bit two's-complement
    // range is [-2^bm, 2^bm - 1].
    const int whole = n / cfg.g;
    const int tail = n - whole * cfg.g;
    const int32_t qmin = -(1 << cfg.bm), qmax = (1 << cfg.bm) - 1;
    int64_t clipped = simd::quantizeStochasticF32(
        values.data(), cfg.g, whole, cfg.g, scale.data(), false, u.data(),
        qmin, qmax, mantissas, cfg.g);
    if (tail > 0)
        clipped += simd::quantizeStochasticF32(
            values.data() + n - tail, tail, 1, tail, scale.data() + whole,
            false, u.data() + n - tail, qmin, qmax, mantissas + n - tail,
            tail);
    tally.addClipped(static_cast<uint64_t>(clipped));
}

/** encodeRowInto for either mantissa width. */
template <typename Q>
void
encodeRow(std::span<const float> values, const BfpConfig &cfg,
          std::span<Q> mantissas, std::span<int32_t> exponents, Rng *rng,
          obs::fidelity::BfpGroupTally &tally)
{
    cfg.validate();
    const int n = static_cast<int>(values.size());
    const int groups = static_cast<int>(ceilDiv(n, cfg.g));
    MIRAGE_ASSERT(mantissas.size() >= values.size(),
                  "mantissa buffer too small");
    MIRAGE_ASSERT(exponents.size() >= static_cast<size_t>(groups),
                  "exponent buffer too small");
    const simd::QuantRound mode = quantRound(cfg.rounding);
    if (mode != simd::QuantRound::Stochastic) {
        const simd::GroupEncodeStats st = simd::encodeRowF32(
            values.data(), n, cfg.g, cfg.bm, mode, mantissas.data(),
            exponents.data());
        requireFinite(st.max_bits);
        noteExponents(exponents.data(), groups, tally);
        tally.addClipped(static_cast<uint64_t>(st.clipped));
        return;
    }
    if constexpr (std::is_same_v<Q, int32_t>) {
        encodeRowStochastic(values, cfg, mantissas.data(), exponents.data(),
                            rng, tally);
    } else {
        Workspace &ws = threadWorkspace();
        Workspace::Scope scope(ws);
        std::span<int32_t> wide = ws.alloc<int32_t>(values.size());
        encodeRowStochastic(values, cfg, wide.data(), exponents.data(), rng,
                            tally);
        std::copy(wide.begin(), wide.end(), mantissas.begin());
    }
}

/**
 * encodeColumnsInto over columns [j0, j0 + w). Floor and half-away
 * rounding run the one-pass column encoder. Stochastic rounding takes one
 * vector pass for the column maxima of each chunk and one for its
 * mantissas; `streams` holds column j0 + i's stochastic stream at [i], or
 * is null.
 */
void
encodeColumnBlock(std::span<const float> b, int k_depth, int n_cols, int j0,
                  int w, const BfpConfig &cfg, std::span<int32_t> mantissas,
                  std::span<int32_t> exponents, std::optional<Rng> *streams,
                  obs::fidelity::BfpGroupTally &tally)
{
    const simd::QuantRound mode = quantRound(cfg.rounding);
    const size_t n = static_cast<size_t>(n_cols);
    const int chunks = static_cast<int>(ceilDiv(k_depth, cfg.g));
    // Rows k_depth..chunks*g-1 of the last chunk are padding.
    for (int k = k_depth; k < chunks * cfg.g; ++k)
        std::fill_n(&mantissas[k * n + j0], w, 0);
    if (mode != simd::QuantRound::Stochastic) {
        const simd::GroupEncodeStats st = simd::encodeColsF32(
            b.data() + j0, n_cols, k_depth, cfg.g, w, cfg.bm, mode,
            mantissas.data() + j0, n_cols, exponents.data() + j0, n_cols);
        requireFinite(st.max_bits);
        for (int c = 0; c < chunks; ++c)
            noteExponents(&exponents[c * n + j0], w, tally);
        tally.addClipped(static_cast<uint64_t>(st.clipped));
        return;
    }
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    std::span<uint32_t> max_bits = ws.alloc<uint32_t>(w);
    std::span<double> scale = ws.alloc<double>(w);
    std::span<double> u = ws.alloc<double>(static_cast<size_t>(cfg.g) * w);
    int64_t clipped = 0;
    for (int start = 0, c = 0; start < k_depth; start += cfg.g, ++c) {
        const int len = std::min(cfg.g, k_depth - start);
        const float *src = &b[start * n + j0];
        simd::maxAbsBitsColsF32(src, n_cols, len, w, max_bits.data());
        for (int i = 0; i < w; ++i) {
            requireFinite(max_bits[i]);
            const int e = simd::groupExponent(max_bits[i]);
            exponents[c * n + j0 + i] = e;
            tally.note(e);
            scale[i] = mantissaScale(cfg, e);
            if (max_bits[i] != 0)
                drawUniforms(streams ? &*streams[i] : nullptr, len, &u[i], w);
            else
                for (int t = 0; t < len; ++t)
                    u[static_cast<size_t>(t) * w + i] = 0.0;
        }
        clipped += simd::quantizeStochasticF32(
            src, n_cols, len, w, scale.data(), true, u.data(), -(1 << cfg.bm),
            (1 << cfg.bm) - 1, &mantissas[start * n + j0], n_cols);
    }
    tally.addClipped(static_cast<uint64_t>(clipped));
}

} // namespace

void
encodeRowInto(std::span<const float> values, const BfpConfig &cfg,
              std::span<int32_t> mantissas, std::span<int32_t> exponents,
              Rng *rng, obs::fidelity::BfpGroupTally &tally)
{
    encodeRow(values, cfg, mantissas, exponents, rng, tally);
}

void
encodeRowInto(std::span<const float> values, const BfpConfig &cfg,
              std::span<int16_t> mantissas, std::span<int32_t> exponents,
              Rng *rng, obs::fidelity::BfpGroupTally &tally)
{
    encodeRow(values, cfg, mantissas, exponents, rng, tally);
}

void
encodeColumnsInto(std::span<const float> b, int k_depth, int n_cols, int j0,
                  int j1, const BfpConfig &cfg, std::span<int32_t> mantissas,
                  std::span<int32_t> exponents,
                  std::optional<uint64_t> stream_base,
                  obs::fidelity::BfpGroupTally &tally)
{
    cfg.validate();
    const size_t chunks = static_cast<size_t>(ceilDiv(k_depth, cfg.g));
    MIRAGE_ASSERT(b.size() == static_cast<size_t>(k_depth) * n_cols,
                  "matrix shape mismatch");
    MIRAGE_ASSERT(0 <= j0 && j0 <= j1 && j1 <= n_cols, "column range");
    MIRAGE_ASSERT(mantissas.size() >= chunks * cfg.g * n_cols &&
                      exponents.size() >= chunks * n_cols,
                  "panel buffers too small");
    if (cfg.rounding != Rounding::Stochastic || !stream_base) {
        encodeColumnBlock(b, k_depth, n_cols, j0, j1 - j0, cfg, mantissas,
                          exponents, nullptr, tally);
        return;
    }
    // Each column draws from its own stream, chunk after chunk, so the
    // streams of a block stay live across its chunks.
    for (int jb = j0; jb < j1; jb += kStreamCols) {
        const int w = std::min(kStreamCols, j1 - jb);
        std::optional<Rng> streams[kStreamCols];
        for (int i = 0; i < w; ++i)
            streams[i].emplace(
                Rng::stream(*stream_base, static_cast<uint64_t>(jb + i)));
        encodeColumnBlock(b, k_depth, n_cols, jb, w, cfg, mantissas,
                          exponents, streams, tally);
    }
}

BfpBlock
encodeBlock(std::span<const float> values, const BfpConfig &cfg, Rng *rng)
{
    MIRAGE_ASSERT(values.size() <= static_cast<size_t>(cfg.g),
                  "group larger than configured size");
    BfpBlock block;
    block.mantissas.resize(values.size(), 0);
    obs::fidelity::BfpGroupTally tally;
    encodeRowInto(values, cfg, block.mantissas,
                  std::span<int32_t>(&block.exponent, 1), rng, tally);
    tally.flush();
    return block;
}

std::vector<float>
decodeBlock(const BfpBlock &block, const BfpConfig &cfg)
{
    std::vector<float> out(block.mantissas.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = block.decode(i, cfg.bm);
    return out;
}

void
fakeQuantize(std::span<float> values, const BfpConfig &cfg, Rng *rng)
{
    for (size_t start = 0; start < values.size(); start += cfg.g) {
        const size_t len = std::min(static_cast<size_t>(cfg.g),
                                    values.size() - start);
        const BfpBlock block =
            encodeBlock(values.subspan(start, len), cfg, rng);
        for (size_t i = 0; i < len; ++i)
            values[start + i] = block.decode(i, cfg.bm);
    }
}

BlockDotResult
blockDot(const BfpBlock &a, const BfpBlock &b, int bm)
{
    MIRAGE_ASSERT(a.mantissas.size() == b.mantissas.size(),
                  "block length mismatch in dot product");
    BlockDotResult r;
    for (size_t i = 0; i < a.mantissas.size(); ++i)
        r.integer_sum += static_cast<int64_t>(a.mantissas[i]) * b.mantissas[i];
    r.value = std::ldexp(static_cast<double>(r.integer_sum),
                         a.exponent + b.exponent - 2 * bm);
    return r;
}

} // namespace bfp
} // namespace mirage
