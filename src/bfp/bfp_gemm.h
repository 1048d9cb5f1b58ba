#ifndef MIRAGE_BFP_BFP_GEMM_H
#define MIRAGE_BFP_BFP_GEMM_H

/**
 * @file
 * BFP GEMM with the paper's grouping semantics (Sec. III): groups run along
 * the contraction (K) dimension — the input vector chunk and the matching
 * weight-row chunk each form one group — integer chunk dot products are
 * exact, and cross-chunk accumulation happens in FP32 (dataflow step 9).
 *
 * Mirage computes each chunk dot product in the RNS domain over a moduli
 * set. With Eq. (13) satisfied that round trip is numerically transparent
 * — the CRT decode returns the integer dot — which is exactly Mirage's
 * claim. bfpGemm therefore computes the integer dot directly, and
 * bfpGemmRnsReference carries the round trip out as the reference that
 * tests and the sampled fidelity oracle compare against.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bfp/bfp.h"
#include "common/workspace.h"
#include "rns/conversion.h"
#include "rns/moduli_set.h"

namespace mirage {
namespace bfp {

/**
 * Serial-below cutoffs (runtime::serialBelow) of bfpGemm and the packed
 * encoders: a call forks its loop onto the pool only at this much work or
 * more, counted in elements encoded and in MACs computed.
 *
 * Derived on a 4-vCPU Xeon (AVX2, GCC 12). A parallelFor fork costs about
 * 4 us with 2 pool workers, 6 us with 4 and 7-15 us with 8 (p90 16-25 us,
 * p99 up to 40 us), plus any helper that wakes late, which the forking
 * thread then waits for. The one-pass encoders take 0.6-1.0 ns per
 * element and the fused kernel 0.08-0.1 ns per MAC at these sizes, so
 * 2^16 elements and 2^19 MACs are each about 40-50 us of serial work:
 * below that, a fork's cost and its late-helper risk exceed what a second
 * worker can win. Every GEMM of the small training CNN (at most 16 x 72 x
 * 256, 295k MACs, and 18k-element operands) then runs inline, so its
 * replica legs make no nested dispatch; a 192 x 64 x 96 GEMM (1.2M MACs)
 * still forks. bfpGemmRnsReference's residue and chunk-dot loops cost 100x
 * or more per operation and fork at their own, lower cutoffs.
 */
inline constexpr int64_t kMinEncodeWork = int64_t{1} << 16;
inline constexpr int64_t kMinComputeWork = int64_t{1} << 19;

/** Execution options for bfpGemm. */
struct BfpGemmOptions
{
    BfpConfig config;
    /// When set, the moduli set the chunk dot products are computed over.
    /// It must satisfy Eq. (13) (fatal otherwise), which makes the results
    /// bit-identical to the unset case.
    std::optional<rns::ModuliSet> moduli;
    /// RNG used only for stochastic rounding.
    Rng *rng = nullptr;
};

/**
 * C = A * B where A is MxK and B is KxN, all row-major FP32.
 * A's rows and B's columns are BFP-grouped along K in chunks of cfg.g.
 *
 * The span overload writes into caller-provided storage (size m*n) and
 * stages every temporary — B's K-major panels and one encoded 4-row panel
 * of A per worker — in Workspace arenas, so warm steady-state calls
 * perform no heap allocation. The vector overload is a
 * thin allocating wrapper; results are bit-identical between the two.
 */
void bfpGemm(std::span<const float> a, std::span<const float> b,
             std::span<float> c, int m_rows, int k_depth, int n_cols,
             const BfpGemmOptions &opts);

std::vector<float> bfpGemm(const std::vector<float> &a,
                           const std::vector<float> &b,
                           int m_rows, int k_depth, int n_cols,
                           const BfpGemmOptions &opts);

/**
 * Core kernel behind both overloads. B is encoded once with
 * encodeColsPacked; A is encoded one 4-row panel at a time inside the
 * compute loop, by the row encoder of encodeRowsPacked (encodeRowInto),
 * straight into int16 mantissas in a panel buffer that stays in the
 * worker's arena. One fused panel kernel (simd::bfpPanel4) per 4-row
 * panel then computes every chunk dot product exactly — int16 pairs
 * multiplied and added into int32 lanes when g 2^(2 bm) <= 2^31 - 1, in
 * int64 otherwise — scales it by an exact power of two with one rounding
 * to float (in float arithmetic when g 2^(2 bm) <= 2^24 and the scale is
 * a normal float, else in double) and accumulates it in FP32 in
 * ascending chunk order. A non-null `codec` names the moduli set of the
 * RNS domain: it is checked against Eq. (13), under which the RNS round
 * trip returns every chunk dot unchanged, and is not otherwise used.
 * Callers that execute many GEMMs over one moduli set pass a cached codec
 * (rns::cachedCodec) so per-call setup allocates nothing.
 */
void bfpGemm(std::span<const float> a, std::span<const float> b,
             std::span<float> c, int m_rows, int k_depth, int n_cols,
             const BfpConfig &cfg, const rns::RnsCodec *codec,
             Rng *rng = nullptr);

/**
 * bfpGemm with the RNS round trip carried out: per-modulus residue planes,
 * modular chunk dots (fully reduced when a modulus is too large for raw
 * 64-bit accumulation), CRT decode, std::ldexp scaling, FP32 accumulation.
 * Given the same inputs and rng state it returns exactly what bfpGemm
 * returns with `codec`, and draws the same values from `rng`. Tests and the
 * sampled fidelity oracle (nn::FormatBackend) compare the two. Records the
 * fidelity.rns.* overflow-margin accounting. Slow: one CRT decode per
 * chunk dot.
 */
void bfpGemmRnsReference(std::span<const float> a, std::span<const float> b,
                         std::span<float> c, int m_rows, int k_depth,
                         int n_cols, const BfpConfig &cfg,
                         const rns::RnsCodec &codec, Rng *rng = nullptr);

// Packed encodings: one arena allocation per operand; B's layout is the one
// the fused panel kernel reads. Each group encodes bit-identically to
// encodeBlock on the same values. Stochastic rounding draws one base value
// per operand from the caller's rng — A's before B's in a GEMM — and gives
// each row (A) or column (B) the substream Rng::stream(base, index), so
// encoding is the same at every thread count and deterministic rounding
// never consumes rng.

/**
 * Rows of A encoded along K: mantissas stored [row][chunk][g] with
 * zero-padded tails (padding contributes nothing to integer dots) and one
 * exponent per (row, chunk).
 */
struct BfpPackedMatrix
{
    int rows = 0;
    int chunk_count = 0;
    int g = 0;
    std::span<int32_t> mantissas; ///< rows * chunk_count * g, zero-padded.
    std::span<int32_t> exponents; ///< rows * chunk_count.

    /** Mantissa group of (row, chunk): g elements. */
    const int32_t *
    chunk(int row, int c) const
    {
        return &mantissas[(static_cast<size_t>(row) * chunk_count + c) * g];
    }

    /** Shared exponent of (row, chunk). */
    int
    exponent(int row, int c) const
    {
        return exponents[static_cast<size_t>(row) * chunk_count + c];
    }
};

/**
 * Columns of B encoded along K in the K-major layout the fused panel
 * kernel streams: mantissas stored [chunk][g][col], so chunk c is a g x
 * cols panel whose row t holds element k = c * g + t of every column, and
 * rows past K in the last chunk are zero. Exponents are stored
 * [chunk][col].
 */
struct BfpColumnPanels
{
    int cols = 0;
    int chunk_count = 0;
    int g = 0;
    std::span<int32_t> mantissas; ///< chunk_count * g * cols, zero-padded.
    std::span<int32_t> exponents; ///< chunk_count * cols.

    /** The g x cols mantissa panel of chunk c (row stride cols). */
    const int32_t *
    panel(int c) const
    {
        return &mantissas[static_cast<size_t>(c) * g * cols];
    }

    /** Shared exponent of (col, chunk). */
    int
    exponent(int col, int c) const
    {
        return exponents[static_cast<size_t>(c) * cols + col];
    }
};

/** Encodes matrix rows (MxK, row-major) into K-chunk groups; scratch comes
 *  from (and stays valid inside) `ws`. */
BfpPackedMatrix encodeRowsPacked(std::span<const float> a, int m_rows,
                                 int k_depth, const BfpConfig &cfg,
                                 Workspace &ws, Rng *rng = nullptr);

/** Encodes matrix columns (KxN, row-major) straight into K-major panels,
 *  eight columns per vector step; scratch comes from (and stays valid
 *  inside) `ws`. */
BfpColumnPanels encodeColsPacked(std::span<const float> b, int k_depth,
                                 int n_cols, const BfpConfig &cfg,
                                 Workspace &ws, Rng *rng = nullptr);

} // namespace bfp
} // namespace mirage

#endif // MIRAGE_BFP_BFP_GEMM_H
