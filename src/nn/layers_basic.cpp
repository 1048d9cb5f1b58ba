#include "nn/layers_basic.h"

#include <cmath>

#include "common/logging.h"
#include "common/workspace.h"
#include "obs/fidelity.h"

namespace mirage {
namespace nn {

Dense::Dense(int in_features, int out_features, GemmBackend *backend,
             Rng &rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias), backend_(backend)
{
    MIRAGE_ASSERT(backend_ != nullptr, "Dense needs a GEMM backend");
    const float scale = std::sqrt(2.0f / static_cast<float>(in_));
    weight_.name = "dense.weight";
    weight_.value = Tensor::randn({out_, in_}, rng, scale);
    weight_.grad = Tensor::zeros({out_, in_});
    if (has_bias_) {
        bias_.name = "dense.bias";
        bias_.value = Tensor::zeros({out_});
        bias_.grad = Tensor::zeros({out_});
    }
}

Tensor
Dense::forward(const Tensor &x, bool /*training*/)
{
    // Accepts any rank >= 2 with trailing feature dim; leading dims are
    // flattened into the batch (per-token application for [B, T, D]).
    MIRAGE_ASSERT(x.rank() >= 2 && x.shape().back() == in_,
                  "Dense expects [..., ", in_, "], got ", x.shapeString());
    // Shadow probes sampled inside the backend attribute to this label.
    obs::fidelity::LayerScope fidelity_scope("Dense.fwd");
    input_shape_ = x.shape();
    const int batch = static_cast<int>(x.size() / in_);
    cached_input_ = x.reshaped({batch, in_});

    // y[b, o] = sum_i x[b, i] * W[o, i]: C = X * W^T. The transposed
    // weight view is per-call scratch from this thread's arena.
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);
    std::span<float> w_t =
        ws.alloc<float>(static_cast<size_t>(out_) * in_);
    transposeInto(weight_.value.vec(), out_, in_, w_t);
    std::vector<int> out_shape = input_shape_;
    out_shape.back() = out_;
    Tensor y(out_shape);
    backend_->gemm(cached_input_.vec(), w_t, batch, in_, out_, false, false,
                   y.vec());
    if (has_bias_) {
        for (int b = 0; b < batch; ++b)
            for (int o = 0; o < out_; ++o)
                y[static_cast<int64_t>(b) * out_ + o] += bias_.value[o];
    }
    return y;
}

Tensor
Dense::backward(const Tensor &grad_out)
{
    obs::fidelity::LayerScope fidelity_scope("Dense.bwd");
    const int batch = cached_input_.dim(0);
    MIRAGE_ASSERT(grad_out.size() == static_cast<int64_t>(batch) * out_,
                  "Dense backward shape mismatch");
    const Tensor dy = grad_out.reshaped({batch, out_});
    Workspace &ws = threadWorkspace();
    Workspace::Scope scope(ws);

    // dX = dY * W  : (batch x out) * (out x in).
    Tensor grad_in(input_shape_);
    backend_->gemm(dy.vec(), weight_.value.vec(), batch, out_, in_, true,
                   false, grad_in.vec());

    // dW = dY^T * X : (out x batch) * (batch x in).
    std::span<float> dy_t =
        ws.alloc<float>(static_cast<size_t>(batch) * out_);
    transposeInto(dy.vec(), batch, out_, dy_t);
    std::span<float> dw = ws.alloc<float>(static_cast<size_t>(out_) * in_);
    backend_->gemm(dy_t, cached_input_.vec(), out_, batch, in_, true, false,
                   dw);
    for (int64_t i = 0; i < weight_.grad.size(); ++i)
        weight_.grad[i] += dw[static_cast<size_t>(i)];

    if (has_bias_) {
        for (int b = 0; b < batch; ++b)
            for (int o = 0; o < out_; ++o)
                bias_.grad[o] += dy[static_cast<int64_t>(b) * out_ + o];
    }
    return grad_in;
}

std::vector<Param *>
Dense::params()
{
    if (has_bias_)
        return {&weight_, &bias_};
    return {&weight_};
}

Tensor
ReLU::forward(const Tensor &x, bool /*training*/)
{
    // Every mask entry is rewritten, so a same-shape mask is reused.
    if (mask_.shape() != x.shape())
        mask_ = Tensor(x.shape());
    Tensor y(x.shape());
    const float *__restrict xs = x.data();
    float *__restrict ys = y.data();
    float *__restrict ms = mask_.data();
    for (int64_t i = 0, n = x.size(); i < n; ++i) {
        const bool on = xs[i] > 0.0f;
        ms[i] = on ? 1.0f : 0.0f;
        ys[i] = on ? xs[i] : 0.0f;
    }
    return y;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    MIRAGE_ASSERT(grad_out.size() == mask_.size(), "ReLU backward mismatch");
    Tensor grad_in(grad_out.shape());
    const float *__restrict gs = grad_out.data();
    const float *__restrict ms = mask_.data();
    float *__restrict out = grad_in.data();
    for (int64_t i = 0, n = grad_out.size(); i < n; ++i)
        out[i] = gs[i] * ms[i];
    return grad_in;
}

namespace {

constexpr float kGeluC = 0.7978845608028654f; // sqrt(2/pi)

float
geluValue(float x)
{
    const float t = std::tanh(kGeluC * (x + 0.044715f * x * x * x));
    return 0.5f * x * (1.0f + t);
}

float
geluGrad(float x)
{
    const float u = kGeluC * (x + 0.044715f * x * x * x);
    const float t = std::tanh(u);
    const float sech2 = 1.0f - t * t;
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
    return 0.5f * (1.0f + t) + 0.5f * x * sech2 * du;
}

} // namespace

Tensor
Gelu::forward(const Tensor &x, bool /*training*/)
{
    cached_input_ = x;
    Tensor y(x.shape());
    for (int64_t i = 0; i < x.size(); ++i)
        y[i] = geluValue(x[i]);
    return y;
}

Tensor
Gelu::backward(const Tensor &grad_out)
{
    Tensor grad_in(grad_out.shape());
    for (int64_t i = 0; i < grad_out.size(); ++i)
        grad_in[i] = grad_out[i] * geluGrad(cached_input_[i]);
    return grad_in;
}

Tensor
Flatten::forward(const Tensor &x, bool /*training*/)
{
    MIRAGE_ASSERT(x.rank() >= 2, "Flatten needs a batch dimension");
    input_shape_ = x.shape();
    const int batch = x.dim(0);
    const int rest = static_cast<int>(x.size() / batch);
    return x.reshaped({batch, rest});
}

Tensor
Flatten::backward(const Tensor &grad_out)
{
    return grad_out.reshaped(input_shape_);
}

Tensor
SequenceMeanPool::forward(const Tensor &x, bool /*training*/)
{
    MIRAGE_ASSERT(x.rank() == 3, "SequenceMeanPool expects [B, T, D]");
    input_shape_ = x.shape();
    const int batch = x.dim(0), seq = x.dim(1), dim = x.dim(2);
    Tensor y({batch, dim});
    const float inv = 1.0f / static_cast<float>(seq);
    for (int b = 0; b < batch; ++b)
        for (int t = 0; t < seq; ++t)
            for (int d = 0; d < dim; ++d)
                y[static_cast<int64_t>(b) * dim + d] +=
                    x[(static_cast<int64_t>(b) * seq + t) * dim + d] * inv;
    return y;
}

Tensor
SequenceMeanPool::backward(const Tensor &grad_out)
{
    const int batch = input_shape_[0], seq = input_shape_[1],
              dim = input_shape_[2];
    MIRAGE_ASSERT(grad_out.size() == static_cast<int64_t>(batch) * dim,
                  "SequenceMeanPool backward mismatch");
    Tensor grad_in(input_shape_);
    const float inv = 1.0f / static_cast<float>(seq);
    for (int b = 0; b < batch; ++b)
        for (int t = 0; t < seq; ++t)
            for (int d = 0; d < dim; ++d)
                grad_in[(static_cast<int64_t>(b) * seq + t) * dim + d] =
                    grad_out[static_cast<int64_t>(b) * dim + d] * inv;
    return grad_in;
}

} // namespace nn
} // namespace mirage
