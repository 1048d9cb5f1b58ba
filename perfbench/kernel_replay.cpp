#include "kernel_replay.h"

#include <string>
#include <vector>

#include "arch/config.h"
#include "bfp/bfp_gemm.h"
#include "common.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "rns/conversion.h"

namespace pb {

namespace {

/// Each phase is timed over at least this much work, then the median rep.
constexpr double kMinPhaseSeconds = 0.02;
constexpr int kMinReps = 5;

template <typename F>
double
medianRepSeconds(F &&body)
{
    body(); // warm: workspace growth, codec cache
    std::vector<double> reps;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(reps.size()) < kMinReps ||
           secondsSince(start) < kMinPhaseSeconds) {
        const Clock::time_point t0 = Clock::now();
        body();
        reps.push_back(secondsSince(t0));
    }
    return median(reps);
}

} // namespace

KernelPhases
replayKernel(const std::vector<ShapeUse> &uses, uint64_t seed)
{
    using namespace mirage;
    const arch::MirageConfig cfg;
    const bfp::BfpConfig bc{cfg.bm, cfg.g, bfp::Rounding::Nearest};
    const rns::RnsCodec *codec = &rns::cachedCodec(cfg.moduliSet());

    double with_codec = 0.0, without_codec = 0.0, encode = 0.0, macs = 0.0,
           measured = 0.0;
    Rng root(seed);
    for (size_t i = 0; i < uses.size(); ++i) {
        const ShapeUse &u = uses[i];
        Rng rng = root.split(i);
        std::vector<float> a(static_cast<size_t>(u.m) * u.k);
        std::vector<float> b(static_cast<size_t>(u.k) * u.n);
        std::vector<float> c(static_cast<size_t>(u.m) * u.n);
        for (float &v : a)
            v = static_cast<float>(rng.gaussian());
        for (float &v : b)
            v = static_cast<float>(rng.gaussian());

        const double tc = medianRepSeconds([&] {
            bfp::bfpGemm(a, b, c, u.m, u.k, u.n, bc, codec);
        });
        const double tn = medianRepSeconds([&] {
            bfp::bfpGemm(a, b, c, u.m, u.k, u.n, bc, nullptr);
        });
        const double te = medianRepSeconds([&] {
            Workspace &ws = threadWorkspace();
            Workspace::Scope scope(ws);
            bfp::encodeRowsPacked(a, u.m, u.k, bc, ws);
            bfp::encodeColsPacked(b, u.k, u.n, bc, ws);
        });
        with_codec += u.calls * tc;
        without_codec += u.calls * tn;
        encode += u.calls * te;
        macs += u.calls * static_cast<double>(u.m) * u.k * u.n;
        measured += u.measured_s;
    }

    KernelPhases out;
    out.shapes = static_cast<int>(uses.size());
    if (with_codec > 0.0) {
        out.encode_share = encode / with_codec;
        out.codec_share = (with_codec - without_codec) / with_codec;
        out.kernel_mac_per_s = macs / with_codec;
    }
    if (measured > 0.0)
        out.overhead_share = (measured - with_codec) / measured;
    return out;
}

KernelPhases
addKernelLayerMetrics(Result &res, const std::vector<ShapeUse> &mix,
                      double ops, double spatial_util, uint64_t seed)
{
    double gemm_s = 0.0, macs = 0.0;
    for (const ShapeUse &u : mix) {
        gemm_s += u.measured_s;
        macs += u.calls * static_cast<double>(u.m) * u.k * u.n;
    }
    const KernelPhases k = replayKernel(mix, seed);
    res.add(res.layer, "gemm.ms_per_op", 1e3 * gemm_s / ops, "ms");
    res.add(res.layer, "gemm.mac_per_s", macs / gemm_s, "MAC/s");
    res.add(res.layer, "gemm.overhead_share", k.overhead_share, "ratio");
    res.add(res.layer, "bfp.kernel_mac_per_s", k.kernel_mac_per_s, "MAC/s");
    res.add(res.layer, "bfp.encode_share", k.encode_share, "ratio");
    res.add(res.layer, "rns.codec_share", k.codec_share, "ratio");
    res.add(res.layer, "arch.spatial_util", spatial_util, "ratio");
    res.meta.emplace_back("replayed_shapes", std::to_string(k.shapes));
    return k;
}

} // namespace pb
