/**
 * @file
 * google-benchmark micro suites for the numeric kernels: RNS conversion,
 * modular GEMM, BFP encode + GEMM, the layer kernels around the GEMMs, and
 * the functional photonic pipeline.
 * These measure the *simulator's* software throughput (useful when sizing
 * experiments), not the modeled hardware.
 */

#include <benchmark/benchmark.h>

#include "bfp/bfp_gemm.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/workspace.h"
#include "nn/gemm_backend.h"
#include "nn/layers_conv.h"
#include "nn/tensor.h"
#include "numerics/quantized_gemm.h"
#include "photonic/mmvmu.h"
#include "rns/modular_gemm.h"
#include "rns/special_converter.h"

namespace {

using namespace mirage;

void
BM_RnsForwardConversion(benchmark::State &state)
{
    const rns::SpecialConverter conv(5);
    Rng rng(1);
    std::vector<int64_t> values(1024);
    for (auto &v : values)
        v = rng.uniformInt(-16000, 16000);
    for (auto _ : state) {
        for (int64_t v : values)
            benchmark::DoNotOptimize(conv.forwardSigned(v));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RnsForwardConversion);

void
BM_RnsReverseConversion(benchmark::State &state)
{
    const rns::SpecialConverter conv(5);
    Rng rng(2);
    std::vector<rns::ResidueVector> residues;
    for (int i = 0; i < 1024; ++i)
        residues.push_back(conv.forwardSigned(rng.uniformInt(-16000, 16000)));
    for (auto _ : state) {
        for (const auto &r : residues)
            benchmark::DoNotOptimize(conv.reverseSigned(r));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RnsReverseConversion);

void
BM_ModularGemm(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(3);
    std::vector<rns::Residue> a(static_cast<size_t>(n) * n),
        b(static_cast<size_t>(n) * n), c;
    for (auto &v : a)
        v = rng.uniformInt(0, 30);
    for (auto &v : b)
        v = rng.uniformInt(0, 30);
    for (auto _ : state) {
        rns::modularGemm(a, b, c, n, n, n, 31);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_ModularGemm)->Arg(32)->Arg(64)->Arg(256);

void
BM_BfpEncode(benchmark::State &state)
{
    Rng rng(4);
    std::vector<float> values(4096);
    for (auto &v : values)
        v = static_cast<float>(rng.gaussian());
    const bfp::BfpConfig cfg{4, 16, bfp::Rounding::Truncate};
    for (auto _ : state) {
        for (size_t i = 0; i < values.size(); i += 16) {
            benchmark::DoNotOptimize(bfp::encodeBlock(
                std::span<const float>(&values[i], 16), cfg));
        }
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BfpEncode);

/**
 * Packed BFP(4, 16) encoding of one train-shaped operand, r x c row-major:
 * 9 x 1024 is conv1's im2col matrix and 72 x 256 conv2's at micro-batch 4
 * (bench/train_soak's small CNN). BM_BfpEncodeRows groups each row along
 * its c values, the A side of a GEMM; BM_BfpEncodeCols groups each column
 * along its r values into K-major panels, the B side. Rows 64 x 4 are fc1
 * dW's A, one short group per row, so the per-row cost dominates; columns
 * 1024 x 9 are conv1 dW's B, whose ninth column is a one-column tail.
 */
template <bool Columns>
void
runBfpEncodePacked(benchmark::State &state)
{
    const int r = static_cast<int>(state.range(0));
    const int c = static_cast<int>(state.range(1));
    Rng rng(11);
    std::vector<float> values(static_cast<size_t>(r) * c);
    for (auto &v : values)
        v = static_cast<float>(rng.gaussian());
    const bfp::BfpConfig cfg{4, 16, bfp::Rounding::Nearest};
    Workspace ws;
    for (auto _ : state) {
        Workspace::Scope scope(ws);
        if constexpr (Columns) {
            const bfp::BfpColumnPanels enc =
                bfp::encodeColsPacked(values, r, c, cfg, ws);
            benchmark::DoNotOptimize(enc.mantissas.data());
        } else {
            const bfp::BfpPackedMatrix enc =
                bfp::encodeRowsPacked(values, r, c, cfg, ws);
            benchmark::DoNotOptimize(enc.mantissas.data());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * int64_t{r} * c);
}

void
BM_BfpEncodeRows(benchmark::State &state)
{
    runBfpEncodePacked<false>(state);
}
BENCHMARK(BM_BfpEncodeRows)->Args({9, 1024})->Args({72, 256})->Args({64, 4});

void
BM_BfpEncodeCols(benchmark::State &state)
{
    runBfpEncodePacked<true>(state);
}
BENCHMARK(BM_BfpEncodeCols)
    ->Args({9, 1024})
    ->Args({72, 256})
    ->Args({1024, 9});

/** n^3 BFP(4, 16) GEMM through the span API, optionally over a moduli set
 *  (under Eq. 13 both run the same integer-dot kernel). */
void
runBfpGemm(benchmark::State &state, std::optional<rns::ModuliSet> moduli)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(5);
    std::vector<float> a(static_cast<size_t>(n) * n),
        b(static_cast<size_t>(n) * n), c(static_cast<size_t>(n) * n);
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian());
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian());
    bfp::BfpGemmOptions opts;
    opts.config = {4, 16, bfp::Rounding::Truncate};
    opts.moduli = std::move(moduli);
    for (auto _ : state) {
        bfp::bfpGemm(a, b, c, n, n, n, opts);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}

void
BM_BfpRnsGemm(benchmark::State &state)
{
    runBfpGemm(state, rns::ModuliSet::special(5));
}
BENCHMARK(BM_BfpRnsGemm)->Arg(32)->Arg(64)->Arg(128);

void
BM_BfpGemm(benchmark::State &state)
{
    runBfpGemm(state, std::nullopt);
}
BENCHMARK(BM_BfpGemm)->Arg(32)->Arg(64)->Arg(128);

/**
 * BFP(4, 16) GEMM of one M x K x N training shape of bench/train_soak's
 * small CNN at micro-batch 4: conv1 dW 8 x 1024 x 9 (N off the kernel's
 * 8-column step), fc1 dW 64 x 4 x 256 (K = 4, shorter than one group),
 * conv2 forward 16 x 72 x 256 (a ragged last chunk) and conv1 dX
 * 9 x 8 x 1024 (a one-row last panel; one chunk per output, so the FP32
 * epilogue weighs as much as the dots).
 */
void
BM_BfpGemmTrain(benchmark::State &state, int m, int k, int n)
{
    Rng rng(13);
    std::vector<float> a(static_cast<size_t>(m) * k),
        b(static_cast<size_t>(k) * n), c(static_cast<size_t>(m) * n);
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian());
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian());
    bfp::BfpGemmOptions opts;
    opts.config = {4, 16, bfp::Rounding::Truncate};
    for (auto _ : state) {
        bfp::bfpGemm(a, b, c, m, k, n, opts);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * int64_t{m} * k * n);
}
BENCHMARK_CAPTURE(BM_BfpGemmTrain, conv1_dW, 8, 1024, 9);
BENCHMARK_CAPTURE(BM_BfpGemmTrain, fc1_dW, 64, 4, 256);
BENCHMARK_CAPTURE(BM_BfpGemmTrain, conv2_fwd, 16, 72, 256);
BENCHMARK_CAPTURE(BM_BfpGemmTrain, conv1_dX, 9, 8, 1024);

void
BM_Fp32Gemm(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(8);
    std::vector<float> a(static_cast<size_t>(n) * n),
        b(static_cast<size_t>(n) * n), c(static_cast<size_t>(n) * n);
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian());
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian());
    numerics::GemmCall call;
    call.a = a;
    call.b = b;
    call.m = n;
    call.k = n;
    call.n = n;
    for (auto _ : state) {
        numerics::gemmFp32(call, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_Fp32Gemm)->Arg(64)->Arg(256);

/**
 * Training-representative convolution (CIFAR-class interior layer):
 * batch 8, 16 -> 32 channels, 16x16 images, 3x3 stride-1 pad-1, through
 * the FP32 reference backend (im2col + one batched GEMM).
 */
nn::Tensor
convInput(Rng &rng)
{
    nn::Tensor x({8, 16, 16, 16});
    for (int64_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.gaussian());
    return x;
}

void
BM_ConvForward(benchmark::State &state)
{
    Rng rng(9);
    nn::FormatBackend backend(numerics::DataFormat::FP32);
    nn::Conv2d conv(16, 32, 3, 1, 1, &backend, rng);
    const nn::Tensor x = convInput(rng);
    for (auto _ : state) {
        nn::Tensor y = conv.forward(x, true);
        benchmark::DoNotOptimize(y.data());
    }
    // MACs per forward: out_ch * (in_ch * k * k) * batch * out_h * out_w.
    state.SetItemsProcessed(state.iterations() * 32 * (16 * 9) *
                            (8 * 16 * 16));
}
BENCHMARK(BM_ConvForward);

void
BM_ConvBackward(benchmark::State &state)
{
    Rng rng(10);
    nn::FormatBackend backend(numerics::DataFormat::FP32);
    nn::Conv2d conv(16, 32, 3, 1, 1, &backend, rng);
    const nn::Tensor x = convInput(rng);
    nn::Tensor y = conv.forward(x, true);
    nn::Tensor dy(y.shape());
    for (int64_t i = 0; i < dy.size(); ++i)
        dy[i] = static_cast<float>(rng.gaussian(0.0, 0.01));
    for (auto _ : state) {
        nn::Tensor dx = conv.backward(dy);
        benchmark::DoNotOptimize(dx.data());
    }
    // Backward executes the dW and dX GEMMs: ~2x the forward MACs.
    state.SetItemsProcessed(state.iterations() * 2 * 32 * (16 * 9) *
                            (8 * 16 * 16));
}
BENCHMARK(BM_ConvBackward);

/**
 * Row-major transpose (nn::transposeInto) at the small CNN's shapes at
 * micro-batch 4: fc1's weight 64 x 256, transposed on every Dense forward,
 * and the im2col matrices of conv2 (72 x 256) and conv1 (9 x 1024, rows
 * off the 8 x 8 tile), transposed on every Conv2d backward.
 */
void
BM_Transpose(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    const int cols = static_cast<int>(state.range(1));
    Rng rng(14);
    std::vector<float> a(static_cast<size_t>(rows) * cols), t(a.size());
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        nn::transposeInto(a, rows, cols, t);
        benchmark::DoNotOptimize(t.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * int64_t{rows} * cols);
}
BENCHMARK(BM_Transpose)->Args({64, 256})->Args({72, 256})->Args({9, 1024});

/**
 * Stride-1 convolution lowering at the small CNN's conv2 geometry: im2col
 * of a [4, 8, 8, 8] input with a 3 x 3 kernel and padding 1 into its
 * 72 x 256 column matrix, then col2im of that matrix onto a zeroed input
 * gradient, one plane call per (sample, channel, tap) as Conv2d makes.
 */
void
BM_ConvLowering(benchmark::State &state)
{
    constexpr int kBatch = 4, kCh = 8, kHw = 8, kTaps = 3, kPad = 1;
    constexpr int kPlane = kHw * kHw, kCols = kBatch * kPlane;
    Rng rng(15);
    std::vector<float> x(static_cast<size_t>(kBatch) * kCh * kPlane);
    std::vector<float> cols(static_cast<size_t>(kCh) * kTaps * kTaps * kCols);
    std::vector<float> dx(x.size());
    for (auto &v : x)
        v = static_cast<float>(rng.gaussian());
    // fn(input plane offset, column plane offset, dy, dx) for every plane.
    const auto planes = [](auto &&fn) {
        for (int b = 0; b < kBatch; ++b)
            for (int c = 0; c < kCh; ++c)
                for (int ky = 0; ky < kTaps; ++ky)
                    for (int kx = 0; kx < kTaps; ++kx)
                        fn(static_cast<size_t>(b * kCh + c) * kPlane,
                           static_cast<size_t>((c * kTaps + ky) * kTaps + kx) *
                                   kCols +
                               static_cast<size_t>(b) * kPlane,
                           ky - kPad, kx - kPad);
    };
    for (auto _ : state) {
        planes([&](size_t in, size_t col, int oy, int ox) {
            simd::im2colPlaneF32(x.data() + in, kHw, kHw, oy, ox, kHw, kHw,
                                 cols.data() + col);
        });
        std::fill(dx.begin(), dx.end(), 0.0f);
        planes([&](size_t in, size_t col, int oy, int ox) {
            simd::col2imPlaneF32(cols.data() + col, kHw, kHw, oy, ox, kHw,
                                 kHw, dx.data() + in);
        });
        benchmark::DoNotOptimize(dx.data());
        benchmark::ClobberMemory();
    }
    // Column-matrix elements written by im2col, then read by col2im.
    state.SetItemsProcessed(state.iterations() * 2 *
                            static_cast<int64_t>(cols.size()));
}
BENCHMARK(BM_ConvLowering);

void
BM_PhotonicMvm(benchmark::State &state)
{
    const photonic::DeviceKit kit;
    photonic::RnsMmvmu array(rns::ModuliSet::special(5), 32, 16, kit, 10e9);
    Rng rng(6);
    std::vector<int64_t> tile(32 * 16);
    for (auto &v : tile)
        v = rng.uniformInt(-15, 15);
    array.programTile(tile, 32, 16);
    std::vector<int64_t> x(16);
    for (auto &v : x)
        v = rng.uniformInt(-15, 15);
    for (auto _ : state)
        benchmark::DoNotOptimize(array.mvm(x));
    state.SetItemsProcessed(state.iterations() * 32 * 16);
}
BENCHMARK(BM_PhotonicMvm);

} // namespace

BENCHMARK_MAIN();
