/**
 * @file
 * Numerical gradient checks for every layer type and unit tests for the
 * loss/optimizer machinery. A layer whose backward pass disagrees with
 * central-difference gradients would silently corrupt every accuracy
 * experiment, so these are the framework's bedrock tests.
 *
 * The gradient checks are tolerance based, so they would not notice a
 * reordered sum or a changed tie-break. The bit-identity tests at the end
 * pin Conv2d, MaxPool2d, ReLU and Sgd byte for byte against per-element
 * reference loops, including every GEMM operand Conv2d builds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/layers_basic.h"
#include "nn/layers_conv.h"
#include "nn/layers_norm.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "test_support.h"

namespace mirage {
namespace nn {
namespace {

using mirage::test::gradCheck;
using mirage::test::randomTensor;

TEST(GradCheck, Dense)
{
    Rng rng(1);
    FormatBackend backend(numerics::DataFormat::FP32);
    Dense layer(5, 4, &backend, rng);
    gradCheck(layer, randomTensor({3, 5}, 2));
}

TEST(GradCheck, DenseRank3)
{
    Rng rng(1);
    FormatBackend backend(numerics::DataFormat::FP32);
    Dense layer(5, 4, &backend, rng);
    gradCheck(layer, randomTensor({2, 3, 5}, 3));
}

TEST(GradCheck, Conv2d)
{
    Rng rng(2);
    FormatBackend backend(numerics::DataFormat::FP32);
    Conv2d layer(2, 3, 3, 1, 1, &backend, rng);
    gradCheck(layer, randomTensor({2, 2, 5, 5}, 4));
}

TEST(GradCheck, Conv2dStride2NoPad)
{
    Rng rng(3);
    FormatBackend backend(numerics::DataFormat::FP32);
    Conv2d layer(2, 2, 3, 2, 0, &backend, rng);
    gradCheck(layer, randomTensor({2, 2, 7, 7}, 5));
}

TEST(GradCheck, ReLU)
{
    ReLU layer;
    gradCheck(layer, randomTensor({4, 6}, 6));
}

TEST(GradCheck, Gelu)
{
    Gelu layer;
    gradCheck(layer, randomTensor({4, 6}, 7));
}

TEST(GradCheck, MaxPool)
{
    MaxPool2d layer;
    gradCheck(layer, randomTensor({2, 2, 4, 4}, 8));
}

TEST(GradCheck, GlobalAvgPool)
{
    GlobalAvgPool layer;
    gradCheck(layer, randomTensor({2, 3, 4, 4}, 9));
}

TEST(GradCheck, SequenceMeanPool)
{
    SequenceMeanPool layer;
    gradCheck(layer, randomTensor({2, 5, 3}, 10));
}

TEST(GradCheck, BatchNorm)
{
    BatchNorm2d layer(3);
    gradCheck(layer, randomTensor({4, 3, 3, 3}, 11), 4e-2);
}

TEST(GradCheck, LayerNorm)
{
    LayerNorm layer(6);
    gradCheck(layer, randomTensor({4, 6}, 12), 4e-2);
}

TEST(GradCheck, MultiHeadAttention)
{
    Rng rng(13);
    FormatBackend backend(numerics::DataFormat::FP32);
    MultiHeadSelfAttention layer(4, 2, &backend, rng);
    gradCheck(layer, randomTensor({2, 3, 4}, 14), 4e-2);
}

TEST(GradCheck, ResidualBlockWithShortcut)
{
    Rng rng(15);
    FormatBackend backend(numerics::DataFormat::FP32);
    auto main = std::make_unique<Sequential>();
    main->emplace<Dense>(4, 4, &backend, rng);
    main->emplace<ReLU>();
    auto shortcut = std::make_unique<Sequential>();
    shortcut->emplace<Dense>(4, 4, &backend, rng);
    ResidualBlock layer(std::move(main), std::move(shortcut));
    gradCheck(layer, randomTensor({3, 4}, 16));
}

TEST(GradCheck, SmallSequentialStack)
{
    Rng rng(17);
    FormatBackend backend(numerics::DataFormat::FP32);
    Sequential model;
    model.emplace<Conv2d>(1, 2, 3, 1, 1, &backend, rng);
    model.emplace<ReLU>();
    model.emplace<MaxPool2d>();
    model.emplace<Flatten>();
    model.emplace<Dense>(2 * 2 * 2, 3, &backend, rng);
    gradCheck(model, randomTensor({2, 1, 4, 4}, 18));
}

TEST(Loss, SoftmaxCrossEntropyMatchesHandComputation)
{
    Tensor logits({1, 3});
    logits[0] = 1.0f;
    logits[1] = 2.0f;
    logits[2] = 3.0f;
    const LossResult r = softmaxCrossEntropy(logits, {2});
    // L = -log softmax_2 = log(e^1 + e^2 + e^3) - 3.
    const double expect =
        std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0)) - 3.0;
    EXPECT_NEAR(r.loss, expect, 1e-5);
    // Gradient sums to zero and is negative only at the label.
    EXPECT_LT(r.grad[2], 0.0f);
    EXPECT_NEAR(r.grad[0] + r.grad[1] + r.grad[2], 0.0f, 1e-6);
}

TEST(Loss, SoftmaxGradientNumerical)
{
    Rng rng(19);
    Tensor logits = Tensor::randn({3, 5}, rng);
    const std::vector<int> labels = {1, 4, 0};
    const LossResult r = softmaxCrossEntropy(logits, labels);
    const float eps = 1e-3f;
    for (int64_t i = 0; i < logits.size(); i += 2) {
        const float orig = logits[i];
        logits[i] = orig + eps;
        const float up = softmaxCrossEntropy(logits, labels).loss;
        logits[i] = orig - eps;
        const float down = softmaxCrossEntropy(logits, labels).loss;
        logits[i] = orig;
        EXPECT_NEAR(r.grad[i], (up - down) / (2 * eps), 2e-3) << i;
    }
}

TEST(Loss, MseAndArgmax)
{
    Tensor pred({2, 2});
    pred[0] = 1.0f;
    pred[1] = 3.0f;
    pred[2] = 0.0f;
    pred[3] = 5.0f;
    Tensor target({2, 2});
    target.fill(1.0f);
    const LossResult r = meanSquaredError(pred, target);
    EXPECT_NEAR(r.loss, (0 + 4 + 1 + 16) / 4.0, 1e-6);
    const auto am = argmaxRows(pred);
    EXPECT_EQ(am[0], 1);
    EXPECT_EQ(am[1], 1);
}

TEST(Optimizer, SgdStepDirection)
{
    Param p;
    p.value = Tensor({2});
    p.value[0] = 1.0f;
    p.value[1] = -1.0f;
    p.grad = Tensor({2});
    p.grad[0] = 0.5f;
    p.grad[1] = -0.5f;
    Sgd opt(0.1f);
    opt.step({&p});
    EXPECT_NEAR(p.value[0], 0.95f, 1e-6);
    EXPECT_NEAR(p.value[1], -0.95f, 1e-6);
}

TEST(Optimizer, SgdMomentumAccumulates)
{
    Param p;
    p.value = Tensor({1});
    p.grad = Tensor({1});
    p.grad[0] = 1.0f;
    Sgd opt(0.1f, 0.9f);
    opt.step({&p});
    EXPECT_NEAR(p.value[0], -0.1f, 1e-6);
    opt.step({&p}); // velocity = 0.9 * 1 + 1 = 1.9
    EXPECT_NEAR(p.value[0], -0.1f - 0.19f, 1e-6);
}

TEST(Optimizer, AdamFirstStepIsLrSized)
{
    Param p;
    p.value = Tensor({1});
    p.grad = Tensor({1});
    p.grad[0] = 3.0f; // any positive gradient: first Adam step ~ lr
    Adam opt(0.01f);
    opt.step({&p});
    EXPECT_NEAR(p.value[0], -0.01f, 1e-4);
}

TEST(Optimizer, ZeroGradClears)
{
    Param p;
    p.value = Tensor({2});
    p.grad = Tensor({2});
    p.grad.fill(3.0f);
    Optimizer::zeroGrad({&p});
    EXPECT_EQ(p.grad[0], 0.0f);
    EXPECT_EQ(p.grad[1], 0.0f);
}

// ---------------------------------------------------------------------------
// Bit identity against per-element reference loops
// ---------------------------------------------------------------------------

/** Byte equality of two float vectors, naming the first difference. */
::testing::AssertionResult
sameBytes(const std::vector<float> &x, const std::vector<float> &y)
{
    if (x.size() != y.size())
        return ::testing::AssertionFailure()
               << "sizes " << x.size() << " vs " << y.size();
    for (size_t i = 0; i < x.size(); ++i) {
        if (std::memcmp(&x[i], &y[i], sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << x[i] << " vs " << y[i];
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameBytes(const Tensor &x, const Tensor &y)
{
    if (x.shape() != y.shape())
        return ::testing::AssertionFailure()
               << x.shapeString() << " vs " << y.shapeString();
    return sameBytes(x.vec(), y.vec());
}

/** FP32 backend that keeps a copy of every GEMM's operands. */
class RecordingBackend : public GemmBackend
{
  public:
    struct Call
    {
        std::vector<float> a, b;
    };

    std::string name() const override { return "recording"; }
    using GemmBackend::gemm;
    void
    gemm(std::span<const float> a, std::span<const float> b, int m, int k,
         int n, bool a_is_grad, bool b_is_grad, std::span<float> out) override
    {
        calls.push_back({{a.begin(), a.end()}, {b.begin(), b.end()}});
        fp32.gemm(a, b, m, k, n, a_is_grad, b_is_grad, out);
    }

    std::vector<Call> calls;
    FormatBackend fp32{numerics::DataFormat::FP32};
};

std::vector<float>
refTranspose(const std::vector<float> &a, int rows, int cols)
{
    std::vector<float> out(a.size());
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            out[static_cast<size_t>(c) * rows + r] =
                a[static_cast<size_t>(r) * cols + c];
    return out;
}

/** Conv2d's forward and backward as per-element loops, every GEMM
 *  operand kept for comparison. */
struct RefConv
{
    RefConv(int kernel, int stride, int pad, int out_ch)
        : kernel(kernel), stride(stride), pad(pad), out_ch(out_ch)
    {
    }

    int kernel, stride, pad, out_ch;
    int batch = 0, ch = 0, h = 0, w = 0, out_h = 0, out_w = 0;
    std::vector<float> cols;

    int p() const { return out_h * out_w; }
    int kDim() const { return ch * kernel * kernel; }
    int totalCols() const { return batch * p(); }

    Tensor
    forward(const Tensor &x, const Tensor &weight, const Tensor &bias,
            FormatBackend &be)
    {
        batch = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
        out_h = (h + 2 * pad - kernel) / stride + 1;
        out_w = (w + 2 * pad - kernel) / stride + 1;
        const int total = totalCols();
        cols.assign(static_cast<size_t>(kDim()) * total, 0.0f);
        for (int b = 0; b < batch; ++b)
            for (int c = 0; c < ch; ++c)
                for (int ky = 0; ky < kernel; ++ky)
                    for (int kx = 0; kx < kernel; ++kx) {
                        const int row = (c * kernel + ky) * kernel + kx;
                        for (int oy = 0; oy < out_h; ++oy) {
                            const int iy = oy * stride + ky - pad;
                            for (int ox = 0; ox < out_w; ++ox) {
                                const int ix = ox * stride + kx - pad;
                                float v = 0.0f;
                                if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                    v = x[((int64_t{b} * ch + c) * h + iy) *
                                              w +
                                          ix];
                                cols[static_cast<size_t>(row) * total +
                                     b * p() + oy * out_w + ox] = v;
                            }
                        }
                    }
        std::vector<float> y_mat(static_cast<size_t>(out_ch) * total);
        be.gemm(weight.vec(), cols, out_ch, kDim(), total, false, false,
                y_mat);
        Tensor y({batch, out_ch, out_h, out_w});
        for (int b = 0; b < batch; ++b)
            for (int o = 0; o < out_ch; ++o)
                for (int i = 0; i < p(); ++i)
                    y[(int64_t{b} * out_ch + o) * p() + i] =
                        y_mat[static_cast<size_t>(o) * total + b * p() + i] +
                        bias[o];
        return y;
    }

    struct Grads
    {
        std::vector<float> dy_mat, cols_t, w_t, weight, bias;
        Tensor input;
    };

    Grads
    backward(const Tensor &grad_out, const Tensor &weight, FormatBackend &be)
    {
        const int total = totalCols(), k_dim = kDim();
        Grads g;
        g.dy_mat.resize(static_cast<size_t>(out_ch) * total);
        for (int b = 0; b < batch; ++b)
            for (int o = 0; o < out_ch; ++o)
                for (int i = 0; i < p(); ++i)
                    g.dy_mat[static_cast<size_t>(o) * total + b * p() + i] =
                        grad_out[(int64_t{b} * out_ch + o) * p() + i];
        g.cols_t = refTranspose(cols, k_dim, total);
        g.weight.assign(static_cast<size_t>(out_ch) * k_dim, 0.0f);
        std::vector<float> dw(g.weight.size());
        be.gemm(g.dy_mat, g.cols_t, out_ch, total, k_dim, true, false, dw);
        for (size_t i = 0; i < dw.size(); ++i)
            g.weight[i] += dw[i];
        g.bias.assign(static_cast<size_t>(out_ch), 0.0f);
        for (int o = 0; o < out_ch; ++o) {
            float s = 0.0f;
            for (int i = 0; i < total; ++i)
                s += g.dy_mat[static_cast<size_t>(o) * total + i];
            g.bias[static_cast<size_t>(o)] += s;
        }
        g.w_t = refTranspose(weight.vec(), out_ch, k_dim);
        std::vector<float> dcols(static_cast<size_t>(k_dim) * total);
        be.gemm(g.w_t, g.dy_mat, k_dim, out_ch, total, false, true, dcols);
        g.input = Tensor({batch, ch, h, w});
        for (int b = 0; b < batch; ++b)
            for (int c = 0; c < ch; ++c)
                for (int ky = 0; ky < kernel; ++ky)
                    for (int kx = 0; kx < kernel; ++kx) {
                        const int row = (c * kernel + ky) * kernel + kx;
                        for (int oy = 0; oy < out_h; ++oy) {
                            const int iy = oy * stride + ky - pad;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int ox = 0; ox < out_w; ++ox) {
                                const int ix = ox * stride + kx - pad;
                                if (ix < 0 || ix >= w)
                                    continue;
                                g.input[((int64_t{b} * ch + c) * h + iy) * w +
                                        ix] +=
                                    dcols[static_cast<size_t>(row) * total +
                                          b * p() + oy * out_w + ox];
                            }
                        }
                    }
        return g;
    }
};

TEST(BitIdentity, Conv2dMatchesReferenceLoops)
{
    Rng rng(21);
    FormatBackend ref_backend(numerics::DataFormat::FP32);
    for (int kernel : {1, 3, 5}) {
        for (int stride : {1, 2}) {
            for (int pad : {0, 1, 2}) {
                const std::string where = "k=" + std::to_string(kernel) +
                                          " s=" + std::to_string(stride) +
                                          " p=" + std::to_string(pad);
                RecordingBackend backend;
                Conv2d conv(2, 3, kernel, stride, pad, &backend, rng);
                Param &weight = *conv.params()[0];
                Param &bias = *conv.params()[1];
                bias.value = Tensor::randn({3}, rng);
                RefConv ref(kernel, stride, pad, 3);
                // Two rounds, the second on a smaller batch: the reused
                // im2col buffer must not leak the first round's entries.
                for (int batch : {3, 2}) {
                    Tensor x = Tensor::randn({batch, 2, 7, 9}, rng);
                    x[1] = -0.0f;
                    x[2] = 0.0f;
                    backend.calls.clear();
                    for (Param *param : conv.params())
                        param->zeroGrad();
                    const Tensor y = conv.forward(x, true);
                    const Tensor y_ref =
                        ref.forward(x, weight.value, bias.value, ref_backend);
                    ASSERT_TRUE(sameBytes(y, y_ref)) << where;
                    ASSERT_TRUE(sameBytes(backend.calls.at(0).b, ref.cols))
                        << where << " im2col";

                    const Tensor dy = Tensor::randn(y.shape(), rng);
                    const Tensor dx = conv.backward(dy);
                    const RefConv::Grads g =
                        ref.backward(dy, weight.value, ref_backend);
                    ASSERT_EQ(backend.calls.size(), 3u);
                    EXPECT_TRUE(sameBytes(backend.calls[1].a, g.dy_mat))
                        << where << " dY repack";
                    EXPECT_TRUE(sameBytes(backend.calls[1].b, g.cols_t))
                        << where << " cols^T";
                    EXPECT_TRUE(sameBytes(backend.calls[2].a, g.w_t))
                        << where << " W^T";
                    EXPECT_TRUE(sameBytes(weight.grad.vec(), g.weight))
                        << where << " dW";
                    EXPECT_TRUE(sameBytes(bias.grad.vec(), g.bias))
                        << where << " db";
                    EXPECT_TRUE(sameBytes(dx, g.input)) << where << " dX";
                }
            }
        }
    }
}

TEST(BitIdentity, MaxPool2dMatchesReferenceLoop)
{
    // Values from a small set, so windows hold ties, +-0 against each
    // other, NaN in every position, and all-NaN or all -inf windows (which
    // keep index 0 and send their gradient to the tensor's first element).
    // Every shape has at least two output columns.
    Rng rng(22);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float pool[] = {-inf, -1.0f, -0.0f, 0.0f, 1.0f, 2.0f, nan, nan};
    for (const std::vector<int> &shape :
         {std::vector<int>{3, 2, 6, 8}, std::vector<int>{1, 3, 2, 18},
          std::vector<int>{2, 1, 4, 4}, std::vector<int>{1, 2, 4, 26}}) {
        Tensor x(shape);
        for (int64_t i = 0; i < x.size(); ++i)
            x[i] = pool[static_cast<size_t>(rng.uniformInt(0, 7))];
        // The first two windows hold only NaN: both keep index 0.
        for (int64_t i : {0, 1, 2, 3})
            x[i] = x[shape[3] + i] = nan;
        const int oh = shape[2] / 2, ow = shape[3] / 2;
        Tensor y_ref({shape[0], shape[1], oh, ow});
        std::vector<int64_t> argmax(static_cast<size_t>(y_ref.size()));
        for (int64_t plane = 0; plane < int64_t{shape[0]} * shape[1];
             ++plane) {
            for (int oy = 0; oy < oh; ++oy) {
                for (int ox = 0; ox < ow; ++ox) {
                    float best = -inf;
                    int64_t best_idx = 0;
                    for (int dy = 0; dy < 2; ++dy) {
                        for (int dx = 0; dx < 2; ++dx) {
                            const int64_t idx =
                                (plane * shape[2] + (2 * oy + dy)) *
                                    shape[3] +
                                2 * ox + dx;
                            if (x[idx] > best) {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    y_ref[(plane * oh + oy) * ow + ox] = best;
                    argmax[static_cast<size_t>((plane * oh + oy) * ow +
                                               ox)] = best_idx;
                }
            }
        }
        MaxPool2d layer;
        const Tensor y = layer.forward(x, true);
        ASSERT_TRUE(sameBytes(y, y_ref)) << Tensor(shape).shapeString();

        // Distinct nonzero gradients land where argmax points.
        Tensor dy(y.shape());
        for (int64_t i = 0; i < dy.size(); ++i)
            dy[i] = 1.0f + static_cast<float>(i);
        Tensor dx_ref(shape);
        for (int64_t i = 0; i < dy.size(); ++i)
            dx_ref[argmax[static_cast<size_t>(i)]] += dy[i];
        EXPECT_TRUE(sameBytes(layer.backward(dy), dx_ref))
            << Tensor(shape).shapeString();
    }
}

/** Floats for the elementwise tests: signed zeros, infinities, NaN,
 *  subnormals and ordinary values. */
Tensor
specialTensor(std::vector<int> shape, Rng &rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {0.0f,  -0.0f, inf,     -inf,
                              std::numeric_limits<float>::quiet_NaN(),
                              1e-42f, -1e-42f, 3.5f};
    Tensor t = Tensor::randn(std::move(shape), rng);
    for (int64_t i = 0; i < t.size(); ++i)
        if (rng.uniformReal() < 0.4)
            t[i] = specials[static_cast<size_t>(rng.uniformInt(0, 7))];
    return t;
}

TEST(BitIdentity, ReLUMatchesReferenceLoop)
{
    Rng rng(23);
    ReLU layer;
    // Same shape twice (the mask is reused), then a new shape.
    for (const std::vector<int> &shape :
         {std::vector<int>{3, 37}, std::vector<int>{3, 37},
          std::vector<int>{2, 3, 5, 7}}) {
        const Tensor x = specialTensor(shape, rng);
        const Tensor dy = specialTensor(shape, rng);
        Tensor y_ref(shape), mask(shape), dx_ref(shape);
        for (int64_t i = 0; i < x.size(); ++i) {
            const bool on = x[i] > 0.0f;
            mask[i] = on ? 1.0f : 0.0f;
            y_ref[i] = on ? x[i] : 0.0f;
        }
        for (int64_t i = 0; i < dy.size(); ++i)
            dx_ref[i] = dy[i] * mask[i];
        EXPECT_TRUE(sameBytes(layer.forward(x, true), y_ref));
        EXPECT_TRUE(sameBytes(layer.backward(dy), dx_ref));
    }
}

TEST(BitIdentity, SgdStepMatchesReferenceLoop)
{
    Rng rng(24);
    for (float momentum : {0.0f, 0.9f}) {
        for (float decay : {0.0f, 1e-4f}) {
            const std::string where = "momentum=" + std::to_string(momentum) +
                                      " decay=" + std::to_string(decay);
            std::vector<Param> params(4);
            const int sizes[] = {1, 7, 33, 100};
            for (size_t j = 0; j < params.size(); ++j) {
                params[j].value = Tensor::randn({sizes[j]}, rng);
                params[j].value[0] = j % 2 ? -0.0f : 0.0f;
                params[j].grad = Tensor({sizes[j]});
            }
            std::vector<Param *> ptrs;
            for (Param &p : params)
                ptrs.push_back(&p);
            std::vector<std::vector<float>> values, velocity;
            for (const Param &p : params) {
                values.push_back(p.value.vec());
                velocity.emplace_back(p.value.vec().size(), 0.0f);
            }
            Sgd opt(0.05f, momentum, decay);
            for (int step = 0; step < 3; ++step) {
                for (size_t j = 0; j < params.size(); ++j) {
                    params[j].grad = Tensor::randn({sizes[j]}, rng);
                    params[j].grad[0] = -0.0f;
                    std::vector<float> &value = values[j];
                    std::vector<float> &vel = velocity[j];
                    for (size_t i = 0; i < value.size(); ++i) {
                        float g = params[j].grad[static_cast<int64_t>(i)] +
                                  decay * value[i];
                        if (momentum != 0.0f) {
                            vel[i] = momentum * vel[i] + g;
                            g = vel[i];
                        }
                        value[i] -= 0.05f * g;
                    }
                }
                opt.step(ptrs);
                for (size_t j = 0; j < params.size(); ++j) {
                    ASSERT_TRUE(sameBytes(params[j].value.vec(), values[j]))
                        << where << " step " << step << " param " << j;
                    if (momentum != 0.0f) {
                        ASSERT_TRUE(sameBytes(
                            opt.stateSlot(&params[j], "velocity"),
                            velocity[j]))
                            << where << " step " << step << " param " << j;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pooling backward rejects a gradient of the wrong shape
// ---------------------------------------------------------------------------

TEST(PoolingDeathTest, MaxPool2dBackwardRejectsMisShapedGradient)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MaxPool2d layer;
    layer.forward(randomTensor({1, 1, 4, 4}, 25), true); // output [1,1,2,2]
    EXPECT_DEATH(layer.backward(Tensor({1, 1, 4, 4})),
                 "MaxPool2d backward mismatch");
}

TEST(PoolingDeathTest, GlobalAvgPoolBackwardRejectsMisShapedGradient)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    GlobalAvgPool layer;
    layer.forward(randomTensor({2, 3, 4, 4}, 26), true); // output [2, 3]
    EXPECT_DEATH(layer.backward(Tensor({2, 4})),
                 "GlobalAvgPool backward mismatch");
}

TEST(PoolingDeathTest, SequenceMeanPoolBackwardRejectsMisShapedGradient)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SequenceMeanPool layer;
    layer.forward(randomTensor({2, 5, 3}, 27), true); // output [2, 3]
    EXPECT_DEATH(layer.backward(Tensor({2, 5, 3})),
                 "SequenceMeanPool backward mismatch");
}

} // namespace
} // namespace nn
} // namespace mirage
