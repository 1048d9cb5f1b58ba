#ifndef MIRAGE_BFP_BFP_H
#define MIRAGE_BFP_BFP_H

/**
 * @file
 * Block Floating Point (BFP) encoding (paper Sec. II-B, III step 2).
 *
 * A group of g values shares one exponent (the maximum element exponent);
 * each element keeps a (bm+1)-bit signed integer mantissa aligned to that
 * exponent. Groups can then be multiplied with pure integer arithmetic —
 * which is what the RNS/photonic datapath executes — while the shared
 * exponent preserves dynamic range.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"

namespace mirage {

namespace obs::fidelity {
class BfpGroupTally;
} // namespace obs::fidelity

namespace bfp {

/** Mantissa rounding mode applied during BFP encoding. */
enum class Rounding
{
    Truncate,   ///< Drop LSBs (the paper's hardware behaviour, Sec. III).
    Nearest,    ///< Round half away from zero.
    Stochastic, ///< Probabilistic rounding (used by the FMAC baseline).
};

/** Name of a rounding mode, for reports. */
const char *toString(Rounding r);

/** BFP format parameters. */
struct BfpConfig
{
    int bm = 4;                            ///< Mantissa bits (excluding sign).
    int g = 16;                            ///< Group size.
    Rounding rounding = Rounding::Truncate;

    /** Fatal when parameters are outside the supported envelope. */
    void validate() const;

    /** Signed-integer dot-product bit width per Eq. (13): 2(bm+1)+log2(g)-1. */
    int dotProductBits() const;
};

/**
 * One encoded group: value_i ~= mantissa_i * 2^(exponent - bm).
 * Mantissas are (bm+1)-bit two's-complement integers in [-2^bm, 2^bm - 1];
 * values that round past 2^bm - 1 are clipped.
 */
struct BfpBlock
{
    std::vector<int32_t> mantissas;
    int exponent = 0;

    /** Decodes element i back to a float. */
    float decode(size_t i, int bm) const;
};

/**
 * Encodes a group of floats into a BfpBlock.
 *
 * @param values   the group (any length <= cfg.g; shorter tail groups are
 *                 allowed at matrix edges).
 * @param cfg      format parameters.
 * @param rng      required for Rounding::Stochastic; may be null otherwise.
 */
BfpBlock encodeBlock(std::span<const float> values, const BfpConfig &cfg,
                     Rng *rng = nullptr);

/**
 * The group encoder behind encodeBlock and the packed GEMM encoders, over
 * one row: `values` splits into consecutive groups of cfg.g along the row
 * (the last may be shorter). Writes values.size() mantissas (the caller
 * owns any padding) and one shared exponent per group, and notes each
 * group in `tally`. A group's shared exponent is the frexp exponent of its
 * largest magnitude, 0 for an all-zero group; a non-finite value is fatal.
 *
 * Truncate and Nearest rounding make one simd::encodeRowF32 call per
 * row: each mantissa is an integer shift of the float's significand,
 * which equals rounding value * 2^(bm - e), an exact product, in double.
 * Stochastic rounding draws one uniform per element of every non-zero
 * group from `rng`, in order, and rounds in double; scratch comes from
 * threadWorkspace().
 */
void encodeRowInto(std::span<const float> values, const BfpConfig &cfg,
                   std::span<int32_t> mantissas, std::span<int32_t> exponents,
                   Rng *rng, obs::fidelity::BfpGroupTally &tally);

/** encodeRowInto writing int16 mantissas (|mantissa| <= 2^bm <= 2^15),
 *  the A panel layout of bfpGemm's fused kernel. */
void encodeRowInto(std::span<const float> values, const BfpConfig &cfg,
                   std::span<int16_t> mantissas, std::span<int32_t> exponents,
                   Rng *rng, obs::fidelity::BfpGroupTally &tally);

/**
 * Column twin of encodeRowInto over columns [j0, j1) of the k_depth x
 * n_cols row-major matrix `b`, each grouped along K in chunks of cfg.g.
 * Writes the K-major layout: mantissa (k, j) at mantissas[k * n_cols + j],
 * with rows k_depth..chunks*g-1 of the last chunk zero-filled, and the
 * exponent of (chunk c, column j) at exponents[c * n_cols + j]. Truncate
 * and Nearest rounding make one simd::encodeColsF32 call, eight columns
 * per step and the last (j1 - j0) % 8 under a mask. Stochastic
 * rounding needs `stream_base` and draws column j's uniforms from
 * Rng::stream(*stream_base, j), chunk by chunk; scratch comes from
 * threadWorkspace().
 */
void encodeColumnsInto(std::span<const float> b, int k_depth, int n_cols,
                       int j0, int j1, const BfpConfig &cfg,
                       std::span<int32_t> mantissas,
                       std::span<int32_t> exponents,
                       std::optional<uint64_t> stream_base,
                       obs::fidelity::BfpGroupTally &tally);

/** Decodes a whole block back to floats (the "fake quantization" view). */
std::vector<float> decodeBlock(const BfpBlock &block, const BfpConfig &cfg);

/**
 * Quantizes values in place to their nearest BFP-representable value
 * (encode followed by decode). Used by accuracy experiments that only need
 * value-level emulation.
 */
void fakeQuantize(std::span<float> values, const BfpConfig &cfg,
                  Rng *rng = nullptr);

/**
 * Exact integer dot product of two blocks scaled back to real units:
 * result = (sum_i qa_i * qb_i) * 2^(ea + eb - 2 bm).
 * The integer sum is also returned so the RNS path can be cross-checked.
 */
struct BlockDotResult
{
    int64_t integer_sum = 0; ///< Exact signed mantissa dot product.
    double value = 0.0;      ///< integer_sum scaled by the shared exponents.
};

/** Computes the exact block dot product; blocks must have equal length. */
BlockDotResult blockDot(const BfpBlock &a, const BfpBlock &b, int bm);

} // namespace bfp
} // namespace mirage

#endif // MIRAGE_BFP_BFP_H
