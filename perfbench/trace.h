#ifndef MIRAGE_PERFBENCH_TRACE_H
#define MIRAGE_PERFBENCH_TRACE_H

/**
 * @file
 * Outside-in tracing for the traced benchmark run. Spans are recorded by
 * the benchmark's own decorators around the library's public interfaces —
 * a nn::GemmBackend that wraps the backend each model factory receives, an
 * nn::Optimizer that wraps the trainer's optimizer — and by the workloads
 * around each step, request and job. Spans stay in memory and are written
 * once, as a Chrome trace, when the run ends.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "kernel_replay.h"
#include "nn/gemm_backend.h"
#include "nn/optimizer.h"

namespace pb {

namespace nn = mirage::nn;

/** One closed interval on one thread, tagged with its step/request id. */
struct Span
{
    const char *cat = ""; ///< "step", "gemm", "optimizer", "request", "job".
    int64_t t0_ns = 0;    ///< Relative to the tracer's origin.
    int64_t t1_ns = 0;
    uint32_t tid = 0;
    uint64_t id = 0;    ///< Step index, request id or job index.
    int32_t layer = -1; ///< LayerMap key index of a gemm span.
    int32_t m = 0, k = 0, n = 0;

    double seconds() const { return 1e-9 * static_cast<double>(t1_ns - t0_ns); }
};

/** Small dense id of the calling thread (for trace rows). */
uint32_t threadIndex();

/**
 * Names each GEMM a layer issues: the LayerScope label ("Dense.fwd",
 * "Conv2d.bwd") plus the (m, k, n) shape identify the layer and direction.
 * Dense: fwd (B, in, out); bwd dX (B, out, in), dW (out, B, in).
 * Conv2d: fwd (out, kdim, cols); bwd dW (out, cols, kdim), dX (kdim, out, cols).
 */
class LayerMap
{
  public:
    struct Layer
    {
        std::string name;
        bool conv = false;
        int out = 0;
        int in = 0; ///< Dense inputs, or Conv2d Cin * kh * kw.
    };

    explicit LayerMap(std::vector<Layer> layers);

    /** Key index (layer * 2 + bwd), or -1 when nothing matches. */
    int attribute(const char *label, int m, int k, int n) const;

    size_t keys() const { return 2 * layers_.size(); }
    /** "conv1.fwd" style key name. */
    std::string keyName(int key) const;

  private:
    std::vector<Layer> layers_;
};

/** Span sink shared by every decorator of one traced run. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int64_t toNs(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count();
    }
    int64_t nowNs() const { return toNs(Clock::now()); }

    /** Thread-safe append. */
    void record(const Span &s);

    /** Spans recorded so far (decorators' spans are merged by the caller). */
    std::vector<Span> spans() const;

    /** Writes spans as Chrome trace events; names gemm spans via `map`. */
    bool writeChrome(const std::string &path, const std::vector<Span> &spans,
                     const LayerMap *map) const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * GemmBackend decorator: forwards every call to the wrapped backend and
 * records its span, attributed through the LayerMap. A backend serves one
 * caller at a time, so the span buffer needs no lock.
 */
class TimedBackend : public nn::GemmBackend
{
  public:
    /// `op_id` (optional) supplies the current step id; without it the
    /// span takes the caller's obs request id.
    TimedBackend(nn::GemmBackend *inner, const Tracer &tracer,
                 const LayerMap &map, const std::atomic<uint64_t> *op_id);

    std::string name() const override { return inner_->name(); }
    using nn::GemmBackend::gemm;
    void gemm(std::span<const float> a, std::span<const float> b, int m,
              int k, int n, bool a_is_grad, bool b_is_grad,
              std::span<float> out) override;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    nn::GemmBackend *inner_;
    const Tracer &tracer_;
    const LayerMap &map_;
    const std::atomic<uint64_t> *op_id_;
    std::vector<Span> spans_;
};

/** Optimizer decorator: times step() and forwards everything else. */
class TimedOptimizer : public nn::Optimizer
{
  public:
    TimedOptimizer(std::unique_ptr<nn::Optimizer> inner, Tracer &tracer,
                   const std::atomic<uint64_t> &op_id);

    void step(const std::vector<nn::Param *> &params) override;
    float lr() const override { return inner_->lr(); }
    void setLr(float lr) override { inner_->setLr(lr); }
    std::string typeName() const override { return inner_->typeName(); }
    std::vector<std::string> stateSlots() const override
    {
        return inner_->stateSlots();
    }
    std::vector<float> stateSlot(const nn::Param *p,
                                 const std::string &slot) const override
    {
        return inner_->stateSlot(p, slot);
    }
    void setStateSlot(nn::Param *p, const std::string &slot,
                      std::vector<float> data) override
    {
        inner_->setStateSlot(p, slot, std::move(data));
    }
    int64_t stepCount() const override { return inner_->stepCount(); }
    void setStepCount(int64_t t) override { inner_->setStepCount(t); }

  private:
    std::unique_ptr<nn::Optimizer> inner_;
    Tracer &tracer_;
    const std::atomic<uint64_t> &op_id_;
};

/** The GEMM shape mix of `gemm_spans`: calls and host time per shape. */
std::vector<ShapeUse> shapeMix(const std::vector<Span> &gemm_spans);

/** Seconds of [t0, t1] covered by the union of `spans` (ns timestamps). */
double coveredSeconds(std::vector<std::pair<int64_t, int64_t>> spans,
                      int64_t t0, int64_t t1);

/**
 * Per-layer table of a traced run: for each LayerMap key, host GEMM time,
 * calls, MACs and the modeled accelerator time of the same shapes. Adds
 * `nn.<key>.*` report metrics (normalized per `ops`), prints the measured
 * vs modeled table, and returns arch.spatial_util (MAC-weighted).
 */
double reportLayers(Result &res, const LayerMap &map,
                    const std::vector<Span> &gemm_spans, double ops,
                    bool rows_per_call);

} // namespace pb

#endif // MIRAGE_PERFBENCH_TRACE_H
