/**
 * @file
 * engine_gemm: one client in a closed loop submits bursts of 8 GEMM jobs of
 * 192x64x96 (runtime_throughput's --full shape) into a 2-tile RuntimeEngine
 * with max_batch 8. This is the only workload that goes through the
 * engine's job fusion and tile row-sharding, and it runs no nn or trainer
 * code, so kernel, sharding and thread-pool changes show here alone.
 */

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "arch/config.h"
#include "arch/perf_model.h"
#include "common.h"
#include "common/rng.h"
#include "core/mirage.h"
#include "kernel_replay.h"
#include "runtime/engine.h"
#include "trace.h"

namespace pb {

namespace {

using namespace mirage;

constexpr int kM = 192, kK = 64, kN = 96;
constexpr int kBurst = 8;
constexpr int kTiles = 2;
/// Distinct operand sets; burst slot j always submits set j.
constexpr int kOperandSets = kBurst;
constexpr int kWarmupBursts = 3;

std::vector<runtime::GemmRequest>
makeOperands(uint64_t seed, uint64_t &hash)
{
    Rng root(seed);
    std::vector<runtime::GemmRequest> out(kOperandSets);
    hash = fnv1a(nullptr, 0);
    for (int j = 0; j < kOperandSets; ++j) {
        Rng rng = root.split(static_cast<uint64_t>(j));
        runtime::GemmRequest &r = out[static_cast<size_t>(j)];
        r.m = kM;
        r.k = kK;
        r.n = kN;
        r.a.resize(static_cast<size_t>(kM) * kK);
        r.b.resize(static_cast<size_t>(kK) * kN);
        for (float &v : r.a)
            v = static_cast<float>(rng.gaussian());
        for (float &v : r.b)
            v = static_cast<float>(rng.gaussian());
        hash = fnv1a(r.a.data(), r.a.size() * sizeof(float), hash);
        hash = fnv1a(r.b.data(), r.b.size() * sizeof(float), hash);
    }
    return out;
}

runtime::EngineConfig
engineConfig()
{
    runtime::EngineConfig cfg;
    cfg.tiles = kTiles;
    cfg.max_batch = kBurst;
    cfg.queue_capacity = 2 * kBurst + 4;
    return cfg;
}

struct Run
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    uint64_t jobs = 0;
    uint64_t failed = 0;
    std::vector<double> latency_s; ///< Submit to result, seen by the client.
    std::vector<double> queue_s;   ///< GemmResult::queue_s.
    std::vector<double> exec_s;    ///< GemmResult latency minus queue.
    /// Engine-side execution interval of each job (ns, tracer clock).
    std::vector<std::pair<int64_t, int64_t>> exec_ns;
    runtime::RuntimeReport report;
};

Run
runOnce(const Options &opts, const std::vector<std::vector<float>> &oracle,
        Tracer *tracer)
{
    Run run;
    std::vector<runtime::GemmRequest> operands;
    std::unique_ptr<runtime::RuntimeEngine> engine;
    Clock::time_point t0;
    auto burst = [&](bool timed) {
        // Copy the operands first, so the burst's submissions go in back to
        // back and the dispatcher sees a consistent queue to fuse.
        std::vector<runtime::GemmRequest> reqs(operands);
        Clock::time_point sent[kBurst];
        std::vector<std::future<runtime::GemmResult>> futs;
        futs.reserve(kBurst);
        for (int j = 0; j < kBurst; ++j) {
            sent[j] = Clock::now();
            futs.push_back(
                engine->submitGemm(std::move(reqs[static_cast<size_t>(j)])));
        }
        for (int j = 0; j < kBurst; ++j) {
            bool ok = false;
            runtime::GemmResult r;
            try {
                r = futs[static_cast<size_t>(j)].get();
                ok = true;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "engine_gemm: job failed: %s\n", e.what());
            }
            const Clock::time_point done = Clock::now();
            if (!timed)
                continue;
            ++run.jobs;
            if (ok && opts.corrupt && run.jobs == 1)
                r.c[0] = -r.c[0] - 1.0f;
            const std::vector<float> &want = oracle[static_cast<size_t>(j)];
            if (!ok || r.c.size() != want.size() ||
                !bitEqual(r.c.data(), want.data(), want.size())) {
                ++run.failed;
                continue;
            }
            run.latency_s.push_back(secondsBetween(sent[j], done));
            run.queue_s.push_back(r.queue_s);
            run.exec_s.push_back(r.latency_s - r.queue_s);
            if (tracer != nullptr) {
                const int64_t sent_ns = tracer->toNs(sent[j]);
                Span s;
                s.cat = "job";
                s.t0_ns = sent_ns;
                s.t1_ns = tracer->toNs(done);
                s.tid = threadIndex();
                s.id = run.jobs;
                s.m = kM;
                s.k = kK;
                s.n = kN;
                tracer->record(s);
                const auto a = sent_ns + static_cast<int64_t>(1e9 * r.queue_s);
                const auto b = sent_ns + static_cast<int64_t>(1e9 * r.latency_s);
                run.exec_ns.emplace_back(a, b);
                s.cat = "job.exec";
                s.t0_ns = a;
                s.t1_ns = b;
                s.tid = 0;
                tracer->record(s);
            }
        }
    };

    uint64_t hash = 0;
    run.setup_s = medianSetupSeconds(kSetupReps, [&] {
        engine.reset();
        operands = makeOperands(opts.seed, hash);
        engine = std::make_unique<runtime::RuntimeEngine>(engineConfig());
        for (int b = 0; b < kWarmupBursts; ++b)
            burst(false);
    });

    t0 = Clock::now();
    while (secondsSince(t0) < opts.seconds)
        burst(true);
    run.wall_s = secondsSince(t0);
    engine->drain();
    run.report = engine->report();
    return run;
}

} // namespace

Result
runEngineGemm(const Options &opts)
{
    Result res;
    uint64_t hash = 0;
    const std::vector<runtime::GemmRequest> operands =
        makeOperands(opts.seed, hash);
    res.inputs_hash = hash;
    if (opts.fingerprint)
        return res;

    // Oracle: each operand set through the accelerator directly, once.
    core::MirageAccelerator accel;
    std::vector<std::vector<float>> oracle;
    for (const runtime::GemmRequest &r : operands)
        oracle.push_back(accel.gemm(r.a, r.b, r.m, r.k, r.n));

    const Run plain = runOnce(opts, oracle, nullptr);
    const double rss = peakRssMb();
    const double macs_per_job = static_cast<double>(kM) * kK * kN;
    models::ModelShape job_shape;
    job_shape.name = "gemm_job";
    job_shape.layers = {{"job", kM, kK, kN, 1, true}};
    const core::PerformanceReport modeled = accel.estimateInference(job_shape, 1);

    auto e2e = [&](const Run &r, std::vector<Metric> &set) {
        res.add(set, "setup_s", r.setup_s, "s");
        res.add(set, "peak_rss_mb", rss, "MB");
        res.add(set, "p50_ms", 1e3 * median(r.latency_s), "ms");
        res.add(set, "p90_ms", 1e3 * percentile(r.latency_s, 0.9), "ms");
        res.add(set, "throughput_per_s",
                static_cast<double>(r.jobs - r.failed) / r.wall_s, "1/s");
        res.add(set, "modeled_us", 1e6 * modeled.time_s, "sim_us");
        res.add(set, "modeled_uj", 1e6 * modeled.energy_j, "sim_uJ");
    };
    e2e(plain, res.e2e);
    res.attempted = plain.jobs;
    res.failed = plain.failed;
    res.add(res.report, "gemm_mac_per_s",
            macs_per_job * static_cast<double>(plain.jobs - plain.failed) /
                plain.wall_s,
            "MAC/s");
    res.add(res.report, "job_p99_ms", 1e3 * percentile(plain.latency_s, 0.99),
            "ms");
    res.meta.emplace_back("tiles", std::to_string(kTiles));
    res.meta.emplace_back("replicas", "0");
    res.meta.emplace_back("shape", "192x64x96 burst 8 max_batch 8");
    res.meta.emplace_back("job_samples", std::to_string(plain.latency_s.size()));
    res.meta.emplace_back(
        "jobs_per_batch",
        std::to_string(static_cast<double>(plain.report.gemm_jobs) /
                       static_cast<double>(
                           std::max<uint64_t>(1, plain.report.batches_dispatched))));
    res.meta.emplace_back("setup_samples", std::to_string(kSetupReps));

    if (!opts.trace)
        return res;

    Tracer tracer;
    const Run traced = runOnce(opts, oracle, &tracer);
    res.attempted += traced.jobs;
    res.failed += traced.failed;
    std::vector<Metric> traced_e2e;
    e2e(traced, traced_e2e);
    addTraceOverhead(res, traced_e2e);

    const double jobs = static_cast<double>(traced.latency_s.size());
    const double busy_s = coveredSeconds(traced.exec_ns, INT64_MIN, INT64_MAX);
    // The engine's GEMM time is the union of its batches' execution
    // intervals; the standalone kernel replays the job shape.
    const auto best = arch::MiragePerfModel(arch::MirageConfig{})
                          .best({kM, kK, kN});
    addKernelLayerMetrics(res, {{kM, kK, kN, jobs, busy_s}}, jobs,
                          best.second.spatial_util, opts.seed);

    const runtime::RuntimeReport &rep = traced.report;
    res.add(res.report, "runtime.queue_p99_ms",
            1e3 * percentile(traced.queue_s, 0.99), "ms");
    res.add(res.report, "runtime.exec_p50_ms", 1e3 * median(traced.exec_s),
            "ms");
    res.add(res.report, "runtime.utilization", rep.utilization(), "ratio");
    res.add(res.report, "runtime.jobs_per_batch",
            rep.batches_dispatched > 0
                ? static_cast<double>(rep.gemm_jobs) /
                      static_cast<double>(rep.batches_dispatched)
                : 0.0,
            "count");
    res.add(res.report, "runtime.job_retries",
            static_cast<double>(rep.job_retries), "count");
    res.add(res.report, "runtime.max_queue_depth",
            static_cast<double>(rep.max_queue_depth), "count");

    const std::string path = opts.trace_dir + "/engine_gemm-seed" +
                             std::to_string(opts.seed) + ".trace.json";
    if (!tracer.writeChrome(path, tracer.spans(), nullptr))
        throw std::runtime_error("cannot write " + path);
    res.meta.emplace_back("trace_file", path);
    res.meta.emplace_back("traced_job_samples", std::to_string(traced.jobs));
    return res;
}

} // namespace pb
