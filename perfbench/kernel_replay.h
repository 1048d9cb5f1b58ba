#ifndef MIRAGE_PERFBENCH_KERNEL_REPLAY_H
#define MIRAGE_PERFBENCH_KERNEL_REPLAY_H

/**
 * @file
 * Off-the-clock kernel-phase replay: every distinct GEMM shape a traced run
 * recorded is re-executed standalone through bfp::encodeRowsPacked /
 * encodeColsPacked and through bfp::bfpGemm with and without the cached RNS
 * codec, and the phase times are weighted by how often the workload issued
 * each shape.
 */

#include <cstdint>
#include <vector>

#include "common.h"

namespace pb {

/** One GEMM shape of the workload's mix. */
struct ShapeUse
{
    int m = 0, k = 0, n = 0;
    double calls = 0.0;      ///< How often the workload issued this shape.
    double measured_s = 0.0; ///< Host time those calls took in the run.
};

struct KernelPhases
{
    double encode_share = 0.0;     ///< Packed encode time / kernel time.
    double codec_share = 0.0;      ///< (with codec - without) / with codec.
    double kernel_mac_per_s = 0.0; ///< MACs / kernel time, with codec.
    /// (measured call time - standalone kernel time) / measured call time.
    double overhead_share = 0.0;
    int shapes = 0;
};

KernelPhases replayKernel(const std::vector<ShapeUse> &uses, uint64_t seed);

/**
 * Replays `mix` and adds the per-layer metrics every workload reports:
 * gemm.ms_per_op and gemm.mac_per_s (host GEMM time per op of the workload,
 * and MACs over that time), gemm.overhead_share, the kernel phases, and
 * `spatial_util` as arch.spatial_util.
 */
KernelPhases addKernelLayerMetrics(Result &res, const std::vector<ShapeUse> &mix,
                                   double ops, double spatial_util,
                                   uint64_t seed);

} // namespace pb

#endif // MIRAGE_PERFBENCH_KERNEL_REPLAY_H
