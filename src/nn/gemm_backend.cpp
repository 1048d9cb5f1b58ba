#include "nn/gemm_backend.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "bfp/bfp_gemm.h"
#include "common/logging.h"
#include "common/workspace.h"
#include "rns/conversion.h"

namespace mirage {
namespace nn {

FormatBackend::FormatBackend(numerics::DataFormat format,
                             numerics::FormatGemmConfig cfg, uint64_t seed)
    : format_(format), cfg_(std::move(cfg)), rng_(seed)
{
}

std::string
FormatBackend::name() const
{
    return numerics::toString(format_);
}

void
FormatBackend::gemm(std::span<const float> a, std::span<const float> b,
                    int m, int k, int n, bool a_is_grad, bool b_is_grad,
                    std::span<float> out)
{
    numerics::GemmCall call;
    call.a = a;
    call.b = b;
    call.m = m;
    call.k = k;
    call.n = n;
    call.a_is_grad = a_is_grad;
    call.b_is_grad = b_is_grad;
    call.rng = &rng_;
    const bool probe = probe_.sample();
    // A probed Mirage GEMM is replayed through the RNS round trip from a
    // copy of the pre-call rng: stochastic rounding draws the same values,
    // and the backend's own stream advances exactly as without probes.
    std::optional<Rng> replay_rng;
    if (probe && format_ == numerics::DataFormat::MirageBfpRns &&
        cfg_.moduli)
        replay_rng.emplace(rng_);
    numerics::formatGemm(format_, call, cfg_, out);

    if (probe) {
        // Shadow execution: re-run this call on the FP32 reference and
        // record the per-layer error. rng is nulled so the shadow never
        // consumes the backend's stream — results stay bit-identical with
        // probes on or off.
        Workspace &ws = threadWorkspace();
        Workspace::Scope scope(ws);
        std::span<float> ref = ws.alloc<float>(out.size());
        numerics::GemmCall shadow = call;
        shadow.rng = nullptr;
        numerics::gemmFp32(shadow, ref);
        const std::string site = "gemm." + name();
        obs::fidelity::recordProbe(site.c_str(), out, ref);
        if (replay_rng) {
            // Compare-only oracle: under Eq. (13) the literal residue/CRT
            // round trip must reproduce the integer-dot output bit for bit.
            bfp::bfpGemmRnsReference(a, b, ref, m, k, n, cfg_.mirage_bfp,
                                     rns::cachedCodec(*cfg_.moduli),
                                     &*replay_rng);
            obs::fidelity::recordRnsOracle(out, ref);
        }
    }
}

PhotonicBackend::PhotonicBackend(int cfg_bm, int cfg_g, int moduli_k, int rows,
                                 photonic::PhotonicNoiseConfig noise,
                                 uint64_t seed)
    : bfp_cfg_{cfg_bm, cfg_g, bfp::Rounding::Nearest},
      array_(rns::ModuliSet::special(moduli_k), rows, cfg_g,
             photonic::DeviceKit{}, 10e9, noise),
      rng_(seed),
      noisy_(noise.anyEnabled())
{
    bfp_cfg_.validate();
    if (!array_.set().canHoldDotProduct(cfg_bm, cfg_g)) {
        MIRAGE_FATAL("moduli k=", moduli_k, " cannot hold BFP bm=", cfg_bm,
                     " g=", cfg_g, " dot products (Eq. 13)");
    }
}

std::string
PhotonicBackend::name() const
{
    return noisy_ ? "Mirage-photonic(noisy)" : "Mirage-photonic";
}

void
PhotonicBackend::gemm(std::span<const float> a, std::span<const float> b,
                      int m, int k, int n, bool /*a_is_grad*/,
                      bool /*b_is_grad*/, std::span<float> out)
{
    MIRAGE_ASSERT(out.size() == static_cast<size_t>(m) * n,
                  "C shape mismatch");
    // BFP-encode exactly as the dataflow prescribes (Fig. 2 steps 1-2):
    // A rows and B columns grouped along the contraction dimension, into
    // packed workspace-backed form (zero-padded tails stream as zeros, just
    // like the legacy per-block staging did).
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    const bfp::BfpPackedMatrix a_enc =
        bfp::encodeRowsPacked(a, m, k, bfp_cfg_, ws);
    const bfp::BfpColumnPanels b_enc =
        bfp::encodeColsPacked(b, k, n, bfp_cfg_, ws);
    const int chunks = a_enc.chunk_count;
    const int rows = array_.rows();
    const int g = bfp_cfg_.g;
    const int bm = bfp_cfg_.bm;

    std::fill(out.begin(), out.end(), 0.0f);
    std::span<int64_t> tile =
        ws.alloc<int64_t>(static_cast<size_t>(rows) * g);
    std::span<int64_t> x = ws.alloc<int64_t>(static_cast<size_t>(g));
    std::span<int64_t> y = ws.alloc<int64_t>(static_cast<size_t>(rows));
    Rng *rng = noisy_ ? &rng_ : nullptr;

    // Weight-stationary mapping (DF1): mantissa tiles from A are programmed
    // into the array; B-column mantissa chunks stream as inputs.
    for (int r0 = 0; r0 < m; r0 += rows) {
        const int tr = std::min(rows, m - r0);
        for (int ch = 0; ch < chunks; ++ch) {
            std::span<int64_t> t = tile.first(static_cast<size_t>(tr) * g);
            for (int r = 0; r < tr; ++r) {
                const int32_t *src = a_enc.chunk(r0 + r, ch);
                for (int c = 0; c < g; ++c)
                    t[static_cast<size_t>(r) * g + c] = src[c];
            }
            array_.programTile(t, tr, g);

            for (int j = 0; j < n; ++j) {
                // Column j of the chunk's K-major panel.
                const int32_t *src = b_enc.panel(ch) + j;
                for (int c = 0; c < g; ++c)
                    x[static_cast<size_t>(c)] = src[static_cast<size_t>(c) * n];
                array_.mvm(x, rng, y);
                for (int r = 0; r < tr; ++r) {
                    // Partial outputs accumulate in FP32 after reverse
                    // conversion and exponent reconstruction (steps 7-9).
                    out[static_cast<size_t>(r0 + r) * n + j] +=
                        static_cast<float>(std::ldexp(
                            static_cast<double>(y[static_cast<size_t>(r)]),
                            a_enc.exponent(r0 + r, ch) + b_enc.exponent(j, ch) -
                                2 * bm));
                }
            }
        }
    }

    if (probe_.sample()) {
        // Shadow execution against the FP32 reference (see FormatBackend):
        // compare-only, no rng consumed, output untouched.
        Workspace::Scope probe_scope(ws);
        std::span<float> ref = ws.alloc<float>(out.size());
        numerics::GemmCall shadow;
        shadow.a = a;
        shadow.b = b;
        shadow.m = m;
        shadow.k = k;
        shadow.n = n;
        numerics::gemmFp32(shadow, ref);
        const std::string site = "gemm." + name();
        obs::fidelity::recordProbe(site.c_str(), out, ref);
    }
}

std::unique_ptr<GemmBackend>
makeFormatBackend(numerics::DataFormat format, uint64_t seed)
{
    numerics::FormatGemmConfig cfg;
    return std::make_unique<FormatBackend>(format, cfg, seed);
}

} // namespace nn
} // namespace mirage
