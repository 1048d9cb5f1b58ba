#include "nn/optimizer.h"

#include <cmath>

#include "common/logging.h"

namespace mirage {
namespace nn {

void
Optimizer::zeroGrad(const std::vector<Param *> &params)
{
    for (Param *p : params)
        p->zeroGrad();
}

Sgd::Sgd(float lr, float momentum, float weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay)
{
    MIRAGE_ASSERT(lr > 0, "learning rate must be positive");
}

void
Sgd::step(const std::vector<Param *> &params)
{
    // Locals and restrict pointers: the weight stores can alias neither
    // the hyperparameters nor the gradient, so the loops vectorize. Each
    // term keeps one multiply and one add, in the reference's order.
    const float lr = lr_, momentum = momentum_, decay = weight_decay_;
    for (Param *p : params) {
        const int64_t n = p->value.size();
        float *__restrict w = p->value.data();
        const float *__restrict grad = p->grad.data();
        if (momentum == 0.0f) {
            for (int64_t i = 0; i < n; ++i)
                w[i] -= lr * (grad[i] + decay * w[i]);
            continue;
        }
        auto &vel = velocity_[p];
        if (vel.empty())
            vel.assign(static_cast<size_t>(n), 0.0f);
        float *__restrict v = vel.data();
        for (int64_t i = 0; i < n; ++i) {
            v[i] = momentum * v[i] + (grad[i] + decay * w[i]);
            w[i] -= lr * v[i];
        }
    }
}

std::vector<std::string>
Sgd::stateSlots() const
{
    return momentum_ != 0.0f ? std::vector<std::string>{"velocity"}
                             : std::vector<std::string>{};
}

std::vector<float>
Sgd::stateSlot(const Param *p, const std::string &slot) const
{
    MIRAGE_ASSERT(slot == "velocity", "unknown SGD state slot: ", slot);
    const auto it = velocity_.find(const_cast<Param *>(p));
    return it != velocity_.end() ? it->second : std::vector<float>{};
}

void
Sgd::setStateSlot(Param *p, const std::string &slot, std::vector<float> data)
{
    MIRAGE_ASSERT(slot == "velocity", "unknown SGD state slot: ", slot);
    MIRAGE_ASSERT(data.size() == static_cast<size_t>(p->value.size()),
                  "SGD velocity size mismatch for ", p->name);
    velocity_[p] = std::move(data);
}

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps)
{
    MIRAGE_ASSERT(lr > 0, "learning rate must be positive");
}

void
Adam::step(const std::vector<Param *> &params)
{
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (Param *p : params) {
        auto &m = m_[p];
        auto &v = v_[p];
        if (m.empty()) {
            m.assign(static_cast<size_t>(p->value.size()), 0.0f);
            v.assign(static_cast<size_t>(p->value.size()), 0.0f);
        }
        for (int64_t i = 0; i < p->value.size(); ++i) {
            const float g = p->grad[i];
            const size_t si = static_cast<size_t>(i);
            m[si] = beta1_ * m[si] + (1.0f - beta1_) * g;
            v[si] = beta2_ * v[si] + (1.0f - beta2_) * g * g;
            const double mhat = m[si] / bc1;
            const double vhat = v[si] / bc2;
            p->value[i] -= static_cast<float>(
                lr_ * mhat / (std::sqrt(vhat) + eps_));
        }
    }
}

std::vector<std::string>
Adam::stateSlots() const
{
    return {"m", "v"};
}

std::vector<float>
Adam::stateSlot(const Param *p, const std::string &slot) const
{
    MIRAGE_ASSERT(slot == "m" || slot == "v",
                  "unknown Adam state slot: ", slot);
    const auto &map = slot == "m" ? m_ : v_;
    const auto it = map.find(const_cast<Param *>(p));
    return it != map.end() ? it->second : std::vector<float>{};
}

void
Adam::setStateSlot(Param *p, const std::string &slot, std::vector<float> data)
{
    MIRAGE_ASSERT(slot == "m" || slot == "v",
                  "unknown Adam state slot: ", slot);
    MIRAGE_ASSERT(data.size() == static_cast<size_t>(p->value.size()),
                  "Adam ", slot, " size mismatch for ", p->name);
    (slot == "m" ? m_ : v_)[p] = std::move(data);
}

} // namespace nn
} // namespace mirage
