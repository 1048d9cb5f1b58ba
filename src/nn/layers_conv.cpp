#include "nn/layers_conv.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/simd.h"
#include "common/workspace.h"
#include "obs/fidelity.h"

namespace mirage {
namespace nn {

namespace {

/**
 * im2col: input [C, H, W] (one sample) into columns [C*k*k, P] appended at
 * column offset `col0` of a [K, total_cols] buffer. Every entry of those
 * columns is written, padding included. Stride 1 copies each (channel,
 * tap) plane with one simd::im2colPlaneF32 call.
 */
void
im2colSample(const float *x, int ch, int h, int w, int kernel, int stride,
             int pad, int out_h, int out_w, std::vector<float> &cols,
             int total_cols, int col0)
{
    const int k2 = kernel * kernel;
    for (int c = 0; c < ch; ++c) {
        const float *plane = x + static_cast<size_t>(c) * h * w;
        for (int ky = 0; ky < kernel; ++ky) {
            for (int kx = 0; kx < kernel; ++kx) {
                const int row = c * k2 + ky * kernel + kx;
                float *dst =
                    cols.data() + static_cast<size_t>(row) * total_cols + col0;
                if (stride == 1) {
                    simd::im2colPlaneF32(plane, h, w, ky - pad, kx - pad,
                                         out_h, out_w, dst);
                    continue;
                }
                for (int oy = 0; oy < out_h; ++oy) {
                    const int iy = oy * stride + ky - pad;
                    for (int ox = 0; ox < out_w; ++ox) {
                        const int ix = ox * stride + kx - pad;
                        float v = 0.0f;
                        if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                            v = plane[static_cast<size_t>(iy) * w + ix];
                        dst[oy * out_w + ox] = v;
                    }
                }
            }
        }
    }
}

/**
 * col2im scatter-add: the adjoint of im2colSample. Each input element
 * takes its contributions in ascending (ky, kx) order, one add each, on
 * the stride-1 simd::col2imPlaneF32 path as on the strided loop.
 */
void
col2imSample(std::span<const float> cols, int ch, int h, int w, int kernel,
             int stride, int pad, int out_h, int out_w, float *dx,
             int total_cols, int col0)
{
    const int k2 = kernel * kernel;
    for (int c = 0; c < ch; ++c) {
        float *plane = dx + static_cast<size_t>(c) * h * w;
        for (int ky = 0; ky < kernel; ++ky) {
            for (int kx = 0; kx < kernel; ++kx) {
                const int row = c * k2 + ky * kernel + kx;
                const float *src =
                    cols.data() + static_cast<size_t>(row) * total_cols + col0;
                if (stride == 1) {
                    simd::col2imPlaneF32(src, h, w, ky - pad, kx - pad, out_h,
                                         out_w, plane);
                    continue;
                }
                for (int oy = 0; oy < out_h; ++oy) {
                    const int iy = oy * stride + ky - pad;
                    if (iy < 0 || iy >= h)
                        continue;
                    for (int ox = 0; ox < out_w; ++ox) {
                        const int ix = ox * stride + kx - pad;
                        if (ix < 0 || ix >= w)
                            continue;
                        plane[static_cast<size_t>(iy) * w + ix] +=
                            src[oy * out_w + ox];
                    }
                }
            }
        }
    }
}

} // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding, GemmBackend *backend, Rng &rng, bool bias)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(padding),
      has_bias_(bias),
      backend_(backend)
{
    MIRAGE_ASSERT(backend_ != nullptr, "Conv2d needs a GEMM backend");
    MIRAGE_ASSERT(kernel_ >= 1 && stride_ >= 1 && pad_ >= 0,
                  "bad convolution geometry");
    const int fan_in = in_ch_ * kernel_ * kernel_;
    const float scale = std::sqrt(2.0f / static_cast<float>(fan_in));
    weight_.name = "conv.weight";
    weight_.value = Tensor::randn({out_ch_, fan_in}, rng, scale);
    weight_.grad = Tensor::zeros({out_ch_, fan_in});
    if (has_bias_) {
        bias_.name = "conv.bias";
        bias_.value = Tensor::zeros({out_ch_});
        bias_.grad = Tensor::zeros({out_ch_});
    }
}

Tensor
Conv2d::forward(const Tensor &x, bool /*training*/)
{
    MIRAGE_ASSERT(x.rank() == 4 && x.dim(1) == in_ch_,
                  "Conv2d expects [B, ", in_ch_, ", H, W], got ",
                  x.shapeString());
    obs::fidelity::LayerScope fidelity_scope("Conv2d.fwd");
    cached_batch_ = x.dim(0);
    cached_h_ = x.dim(2);
    cached_w_ = x.dim(3);
    out_h_ = (cached_h_ + 2 * pad_ - kernel_) / stride_ + 1;
    out_w_ = (cached_w_ + 2 * pad_ - kernel_) / stride_ + 1;
    MIRAGE_ASSERT(out_h_ > 0 && out_w_ > 0, "convolution output collapsed");

    const int k_dim = in_ch_ * kernel_ * kernel_;
    const int p = out_h_ * out_w_;
    const int total_cols = cached_batch_ * p;
    // The im2col matrix is a member so (a) backward reuses it and (b) its
    // capacity survives across steps — resize() only reallocates when the
    // shape grows, and im2colSample writes every entry, so steady-state
    // training re-fills the same buffer without clearing it first.
    cached_cols_.resize(static_cast<size_t>(k_dim) * total_cols);
    const int64_t sample_sz =
        static_cast<int64_t>(in_ch_) * cached_h_ * cached_w_;
    for (int b = 0; b < cached_batch_; ++b) {
        im2colSample(x.data() + b * sample_sz, in_ch_, cached_h_, cached_w_,
                     kernel_, stride_, pad_, out_h_, out_w_, cached_cols_,
                     total_cols, b * p);
    }

    // Y(mat) = W(out x K) * cols(K x B*P)  — one GEMM for the whole batch,
    // staged through this thread's arena.
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    std::span<float> y_mat =
        ws.alloc<float>(static_cast<size_t>(out_ch_) * total_cols);
    backend_->gemm(weight_.value.vec(), cached_cols_, out_ch_, k_dim,
                   total_cols, false, false, y_mat);

    Tensor y({cached_batch_, out_ch_, out_h_, out_w_});
    for (int b = 0; b < cached_batch_; ++b) {
        for (int o = 0; o < out_ch_; ++o) {
            const float bias_v = has_bias_ ? bias_.value[o] : 0.0f;
            for (int i = 0; i < p; ++i) {
                y[((static_cast<int64_t>(b) * out_ch_ + o) * p) + i] =
                    y_mat[static_cast<size_t>(o) * total_cols + b * p + i] +
                    bias_v;
            }
        }
    }
    return y;
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    obs::fidelity::LayerScope fidelity_scope("Conv2d.bwd");
    const int p = out_h_ * out_w_;
    const int total_cols = cached_batch_ * p;
    const int k_dim = in_ch_ * kernel_ * kernel_;
    MIRAGE_ASSERT(grad_out.rank() == 4 && grad_out.dim(1) == out_ch_ &&
                      grad_out.dim(2) == out_h_ && grad_out.dim(3) == out_w_,
                  "Conv2d backward shape mismatch");

    // All backward temporaries are per-call scratch from this thread's
    // arena; only cached_cols_ (filled by forward) persists.
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);

    // Repack dY to (out x B*P) to mirror the forward layout.
    std::span<float> dy_mat =
        ws.alloc<float>(static_cast<size_t>(out_ch_) * total_cols);
    for (int b = 0; b < cached_batch_; ++b)
        for (int o = 0; o < out_ch_; ++o)
            for (int i = 0; i < p; ++i)
                dy_mat[static_cast<size_t>(o) * total_cols + b * p + i] =
                    grad_out[((static_cast<int64_t>(b) * out_ch_ + o) * p) + i];

    // dW = dY * cols^T : (out x B*P) * (B*P x K).
    std::span<float> cols_t =
        ws.alloc<float>(static_cast<size_t>(k_dim) * total_cols);
    transposeInto(cached_cols_, k_dim, total_cols, cols_t);
    std::span<float> dw =
        ws.alloc<float>(static_cast<size_t>(out_ch_) * k_dim);
    backend_->gemm(dy_mat, cols_t, out_ch_, total_cols, k_dim, true, false,
                   dw);
    for (int64_t i = 0; i < weight_.grad.size(); ++i)
        weight_.grad[i] += dw[static_cast<size_t>(i)];

    if (has_bias_) {
        for (int o = 0; o < out_ch_; ++o) {
            float s = 0.0f;
            for (int i = 0; i < total_cols; ++i)
                s += dy_mat[static_cast<size_t>(o) * total_cols + i];
            bias_.grad[o] += s;
        }
    }

    // dcols = W^T * dY : (K x out) * (out x B*P).
    std::span<float> w_t =
        ws.alloc<float>(static_cast<size_t>(out_ch_) * k_dim);
    transposeInto(weight_.value.vec(), out_ch_, k_dim, w_t);
    std::span<float> dcols =
        ws.alloc<float>(static_cast<size_t>(k_dim) * total_cols);
    backend_->gemm(w_t, dy_mat, k_dim, out_ch_, total_cols, false, true,
                   dcols);

    Tensor grad_in({cached_batch_, in_ch_, cached_h_, cached_w_});
    const int64_t sample_sz =
        static_cast<int64_t>(in_ch_) * cached_h_ * cached_w_;
    for (int b = 0; b < cached_batch_; ++b) {
        col2imSample(dcols, in_ch_, cached_h_, cached_w_, kernel_, stride_,
                     pad_, out_h_, out_w_, grad_in.data() + b * sample_sz,
                     total_cols, b * p);
    }
    return grad_in;
}

std::vector<Param *>
Conv2d::params()
{
    if (has_bias_)
        return {&weight_, &bias_};
    return {&weight_};
}

Tensor
MaxPool2d::forward(const Tensor &x, bool /*training*/)
{
    MIRAGE_ASSERT(x.rank() == 4, "MaxPool2d expects [B, C, H, W]");
    input_shape_ = x.shape();
    const int batch = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
    MIRAGE_ASSERT(h % 2 == 0 && w % 2 == 0,
                  "MaxPool2d requires even spatial dims, got ",
                  x.shapeString());
    const int oh = h / 2, ow = w / 2;
    Tensor y({batch, ch, oh, ow});
    argmax_.resize(static_cast<size_t>(y.size()));
    const float *xs = x.data();
    float *ys = y.data();
    int64_t *am = argmax_.data();
    for (int64_t plane = 0; plane < int64_t{batch} * ch; ++plane) {
        for (int oy = 0; oy < oh; ++oy) {
            const int64_t in_row = (plane * h + 2 * oy) * w;
            const int64_t out_row = (plane * oh + oy) * ow;
            for (int ox = 0; ox < ow; ++ox) {
                // The window's four candidates in row-major order, each
                // taken on a strict > by select and mask, not branch: ties
                // keep the earlier one, NaN never wins, and a window with
                // no value above -inf keeps index 0.
                const int64_t i = in_row + 2 * ox;
                float best = -std::numeric_limits<float>::infinity();
                int64_t at = 0;
                for (const int64_t j : {i, i + 1, i + w, i + w + 1}) {
                    const int64_t take = -int64_t{xs[j] > best};
                    best = xs[j] > best ? xs[j] : best;
                    at = (j & take) | (at & ~take);
                }
                ys[out_row + ox] = best;
                am[out_row + ox] = at;
            }
        }
    }
    return y;
}

Tensor
MaxPool2d::backward(const Tensor &grad_out)
{
    MIRAGE_ASSERT(grad_out.size() == static_cast<int64_t>(argmax_.size()),
                  "MaxPool2d backward mismatch");
    Tensor grad_in(input_shape_);
    for (int64_t i = 0; i < grad_out.size(); ++i)
        grad_in[argmax_[static_cast<size_t>(i)]] += grad_out[i];
    return grad_in;
}

Tensor
GlobalAvgPool::forward(const Tensor &x, bool /*training*/)
{
    MIRAGE_ASSERT(x.rank() == 4, "GlobalAvgPool expects [B, C, H, W]");
    input_shape_ = x.shape();
    const int batch = x.dim(0), ch = x.dim(1);
    const int64_t hw = static_cast<int64_t>(x.dim(2)) * x.dim(3);
    Tensor y({batch, ch});
    for (int b = 0; b < batch; ++b) {
        for (int c = 0; c < ch; ++c) {
            double s = 0.0;
            const int64_t base = (static_cast<int64_t>(b) * ch + c) * hw;
            for (int64_t i = 0; i < hw; ++i)
                s += x[base + i];
            y[static_cast<int64_t>(b) * ch + c] =
                static_cast<float>(s / static_cast<double>(hw));
        }
    }
    return y;
}

Tensor
GlobalAvgPool::backward(const Tensor &grad_out)
{
    const int batch = input_shape_[0], ch = input_shape_[1];
    MIRAGE_ASSERT(grad_out.size() == static_cast<int64_t>(batch) * ch,
                  "GlobalAvgPool backward mismatch");
    Tensor grad_in(input_shape_);
    const int64_t hw =
        static_cast<int64_t>(input_shape_[2]) * input_shape_[3];
    const float inv = 1.0f / static_cast<float>(hw);
    for (int b = 0; b < batch; ++b) {
        for (int c = 0; c < ch; ++c) {
            const float g =
                grad_out[static_cast<int64_t>(b) * ch + c] * inv;
            const int64_t base = (static_cast<int64_t>(b) * ch + c) * hw;
            for (int64_t i = 0; i < hw; ++i)
                grad_in[base + i] = g;
        }
    }
    return grad_in;
}

} // namespace nn
} // namespace mirage
