/**
 * @file
 * train_cnn: train::Trainer on makeSmallCnn(4) over makePatternImages
 * [B, 1, 16, 16], Emulated BFP+RNS numerics, 2 replicas, micro-batch 4 x 4
 * shards (effective batch 16), SGD 0.05/0.9 — train_soak's small_cnn
 * configuration. The load is mostly GEMM through the BFP+RNS kernel,
 * including backward GEMMs on gradient operands; no serve or engine code
 * runs, so bfp/rns/nn/train changes show here and serve changes do not.
 *
 * The run length is a fixed number of optimizer steps (kStepsPerSecond per
 * requested second), so the final loss is a pure function of the seed and
 * the length, and a faster program simply finishes sooner.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "kernel_replay.h"
#include "models/trainable.h"
#include "nn/data.h"
#include "trace.h"
#include "train/trainer.h"

namespace pb {

namespace {

using namespace mirage;

constexpr int kClasses = 4;
constexpr int kReplicas = 2;
constexpr int kMicroBatch = 4;
constexpr int kShards = 4;
constexpr int kSamples = 256;
constexpr int kWarmupSteps = 3; ///< Also the N-vs-1 oracle's step count.
constexpr double kStepsPerSecond = 30.0;
constexpr int kEpochsUnbounded = 1 << 30;
/// train_soak's SGD 0.05/0.9 diverges on some seeds within a few hundred
/// steps (loss spikes, then non-finite weights abort the process); clipping
/// the global gradient norm keeps every seed finite.
constexpr double kClipNorm = 1.0;

nn::Dataset
makeData(uint64_t seed)
{
    return nn::makePatternImages(kSamples, kClasses, 16, 0.3f,
                                 Rng::stream(seed, 1).seed());
}

uint64_t
hashData(const nn::Dataset &d)
{
    uint64_t h = fnv1a(d.inputs.data(),
                       static_cast<size_t>(d.inputs.size()) * sizeof(float));
    return fnv1a(d.labels.data(), d.labels.size() * sizeof(int), h);
}

models::ModelShape
cnnShape()
{
    // Im2col shapes of makeSmallCnn on [B, 1, 16, 16] inputs.
    models::ModelShape shape;
    shape.name = "small_cnn";
    shape.layers = {{"conv1", 8, 9, 256, 1, true},
                    {"conv2", 16, 72, 64, 1, true},
                    {"fc1", 64, 256, 1, 1, true},
                    {"fc2", kClasses, 64, 1, 1, true}};
    return shape;
}

const LayerMap &
cnnLayers()
{
    static const LayerMap map({{"conv1", true, 8, 9},
                               {"conv2", true, 16, 72},
                               {"fc1", false, 64, 256},
                               {"fc2", false, kClasses, 64}});
    return map;
}

train::TrainerConfig
trainerConfig(uint64_t seed, int replicas)
{
    train::TrainerConfig cfg;
    cfg.replicas = replicas;
    cfg.micro_batch = kMicroBatch;
    cfg.shards_per_step = kShards;
    cfg.seed = Rng::stream(seed, 2).seed();
    cfg.clip_norm = kClipNorm;
    cfg.shape = cnnShape();
    return cfg;
}

struct Run
{
    double setup_s = 0.0;
    int64_t steps = 0;
    uint64_t failed = 0;
    std::vector<double> step_s;
    std::vector<float> warmup_loss; ///< The replicas' first kWarmupSteps.
    float final_loss = 0.0f;
    double modeled_step_s = 0.0;
    double modeled_j_per_sample = 0.0;
    double train_wall_s = 0.0; ///< Wall time of all timed steps.
    int64_t start_ns = 0; ///< Tracer time the timed steps began.
    std::vector<Span> gemm_spans;
};

Run
runOnce(const Options &opts, int replicas, int64_t steps, Tracer *tracer)
{
    Run run;
    nn::Dataset data;
    std::unique_ptr<train::Trainer> trainer;
    std::vector<std::unique_ptr<TimedBackend>> backends;
    std::atomic<uint64_t> step_id{0};

    run.setup_s = medianSetupSeconds(kSetupReps, [&] {
        trainer.reset();
        backends.clear();
        data = makeData(opts.seed);
        serve::ModelFactory factory = [&](nn::GemmBackend *backend, Rng &rng) {
            if (tracer != nullptr) {
                backends.push_back(std::make_unique<TimedBackend>(
                    backend, *tracer, cnnLayers(), &step_id));
                backend = backends.back().get();
            }
            return models::makeSmallCnn(kClasses, backend, rng);
        };
        std::unique_ptr<nn::Optimizer> opt =
            std::make_unique<nn::Sgd>(0.05f, 0.9f);
        if (tracer != nullptr)
            opt = std::make_unique<TimedOptimizer>(std::move(opt), *tracer,
                                                   step_id);
        trainer = std::make_unique<train::Trainer>(
            factory, std::move(opt), trainerConfig(opts.seed, replicas));
        const train::TrainReport warm =
            trainer->run(data, nullptr, kEpochsUnbounded, kWarmupSteps);
        run.warmup_loss = warm.step_loss;
    });
    if (steps == 0)
        return run;

    if (tracer != nullptr)
        run.start_ns = tracer->nowNs();
    const Clock::time_point t0 = Clock::now();
    for (int64_t s = 0; s < steps; ++s) {
        step_id.store(static_cast<uint64_t>(s + 1), std::memory_order_relaxed);
        ++run.steps;
        const Clock::time_point a = Clock::now();
        try {
            const train::TrainReport rep =
                trainer->run(data, nullptr, kEpochsUnbounded, 1);
            const Clock::time_point b = Clock::now();
            const float loss = rep.step_loss.empty() ? NAN : rep.step_loss[0];
            if (!std::isfinite(loss)) {
                ++run.failed;
                continue;
            }
            run.step_s.push_back(secondsBetween(a, b));
            run.final_loss = loss;
            run.modeled_step_s = rep.modeled_step_time_s;
            run.modeled_j_per_sample = rep.modeledJoulesPerSample();
            if (tracer != nullptr) {
                Span span;
                span.cat = "step";
                span.t0_ns = tracer->toNs(a);
                span.t1_ns = tracer->toNs(b);
                span.tid = threadIndex();
                span.id = static_cast<uint64_t>(s + 1);
                tracer->record(span);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "train_cnn: step %lld failed: %s\n",
                         static_cast<long long>(s), e.what());
            run.failed += static_cast<uint64_t>(steps - s);
            run.steps = steps;
            break;
        }
    }
    run.train_wall_s = secondsSince(t0);
    for (const auto &b : backends)
        for (const Span &s : b->spans())
            if (s.t0_ns >= run.start_ns)
                run.gemm_spans.push_back(s);
    return run;
}

} // namespace

Result
runTrainCnn(const Options &opts)
{
    Result res;
    res.inputs_hash = hashData(makeData(opts.seed));
    if (opts.fingerprint)
        return res;

    const int64_t steps = std::max<int64_t>(
        10, std::llround(opts.seconds * kStepsPerSecond));
    Run plain = runOnce(opts, kReplicas, steps, nullptr);
    const double rss = peakRssMb();

    // Oracle: the Trainer's N-vs-1 contract. The first steps re-run at one
    // replica, off the clock, must reproduce the 2-replica losses bit for
    // bit.
    const Run single = runOnce(opts, 1, 0, nullptr);
    if (opts.corrupt && !plain.warmup_loss.empty())
        plain.warmup_loss[0] = -plain.warmup_loss[0];
    const bool n_vs_1 =
        plain.warmup_loss.size() == single.warmup_loss.size() &&
        bitEqual(plain.warmup_loss.data(), single.warmup_loss.data(),
                 plain.warmup_loss.size());
    if (!n_vs_1) {
        std::fprintf(stderr, "train_cnn: 2-replica losses differ from the "
                             "1-replica rerun\n");
        res.correct = false;
        ++plain.failed;
    }

    auto samplesPerSecond = [](const Run &r) {
        return static_cast<double>(r.step_s.size()) * kMicroBatch * kShards /
               r.train_wall_s;
    };
    auto e2e = [&](const Run &r, std::vector<Metric> &set) {
        res.add(set, "setup_s", r.setup_s, "s");
        res.add(set, "peak_rss_mb", rss, "MB");
        res.add(set, "p50_ms", 1e3 * median(r.step_s), "ms");
        res.add(set, "p90_ms", 1e3 * percentile(r.step_s, 0.9), "ms");
        res.add(set, "throughput_per_s", samplesPerSecond(r), "1/s");
        res.add(set, "modeled_us", 1e6 * r.modeled_step_s, "sim_us");
        res.add(set, "modeled_uj", 1e6 * r.modeled_j_per_sample, "sim_uJ");
    };
    e2e(plain, res.e2e);
    res.attempted = static_cast<uint64_t>(plain.steps) + 1; // + the oracle
    res.failed = plain.failed;
    res.add(res.report, "step_ms", 1e3 * median(plain.step_s), "ms");
    res.add(res.report, "step_p99_ms", 1e3 * percentile(plain.step_s, 0.99),
            "ms");
    res.add(res.report, "samples_per_s", samplesPerSecond(plain), "1/s");
    res.add(res.report, "final_loss", plain.final_loss, "loss");
    res.add(res.report, "modeled_step_us", 1e6 * plain.modeled_step_s,
            "sim_us");
    res.add(res.report, "modeled_uj_per_sample",
            1e6 * plain.modeled_j_per_sample, "sim_uJ");
    res.meta.emplace_back("tiles", "0");
    res.meta.emplace_back("replicas", std::to_string(kReplicas));
    res.meta.emplace_back("effective_batch",
                          std::to_string(kMicroBatch * kShards));
    res.meta.emplace_back("step_samples", std::to_string(plain.step_s.size()));
    res.meta.emplace_back("setup_samples", std::to_string(kSetupReps));
    res.meta.emplace_back("n_vs_1_steps", std::to_string(kWarmupSteps));

    if (!opts.trace)
        return res;

    Tracer tracer;
    const Run traced = runOnce(opts, kReplicas, steps, &tracer);
    res.attempted += static_cast<uint64_t>(traced.steps);
    res.failed += traced.failed;
    if (traced.final_loss != plain.final_loss) {
        std::fprintf(stderr, "train_cnn: traced run changed the loss\n");
        res.correct = false;
    }
    std::vector<Metric> traced_e2e;
    e2e(traced, traced_e2e);
    addTraceOverhead(res, traced_e2e);

    const std::vector<Span> spans = tracer.spans();
    const double n_steps = static_cast<double>(traced.step_s.size());
    std::vector<std::pair<int64_t, int64_t>> busy;
    double optimizer_s = 0.0;
    for (const Span &s : spans) {
        if (s.t0_ns >= traced.start_ns && std::string(s.cat) == "optimizer") {
            optimizer_s += s.seconds();
            busy.emplace_back(s.t0_ns, s.t1_ns);
        }
    }
    for (const Span &s : traced.gemm_spans)
        busy.emplace_back(s.t0_ns, s.t1_ns);
    double non_gemm_s = 0.0;
    for (const Span &s : spans)
        if (std::string(s.cat) == "step")
            non_gemm_s += s.seconds() - coveredSeconds(busy, s.t0_ns, s.t1_ns);

    const double util = reportLayers(res, cnnLayers(), traced.gemm_spans,
                                     n_steps, false);
    const KernelPhases k = addKernelLayerMetrics(
        res, shapeMix(traced.gemm_spans), n_steps, util, opts.seed);
    res.add(res.report, "train.optimizer_ms", 1e3 * optimizer_s / n_steps,
            "ms");
    res.add(res.report, "train.non_gemm_ms", 1e3 * non_gemm_s / n_steps, "ms");
    res.add(res.report, "nn.backend_overhead_share", k.overhead_share, "ratio");

    std::vector<Span> all = spans;
    all.insert(all.end(), traced.gemm_spans.begin(), traced.gemm_spans.end());
    const std::string path = opts.trace_dir + "/train_cnn-seed" +
                             std::to_string(opts.seed) + ".trace.json";
    if (!tracer.writeChrome(path, all, &cnnLayers()))
        throw std::runtime_error("cannot write " + path);
    res.meta.emplace_back("trace_file", path);
    return res;
}

} // namespace pb
