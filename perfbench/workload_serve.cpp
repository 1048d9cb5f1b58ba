/**
 * @file
 * serve_mlp: serve::InferenceServer over a 2-tile RuntimeEngine serving
 * three functional 16-32-32-4 MLP entries (published with publishModel).
 * Requests carry one sample of seeded Gaussian features; 90% are
 * interactive. One generator thread replays an open-loop Poisson schedule
 * in two phases: `light` at 4000 req/s, where the 2 ms interactive flush
 * window sets latency, and `heavy` at 16000 req/s, where per-request host
 * cost in serve/runtime/nn sets it. Every GEMM is 1-8 rows by at most 32
 * wide, so the kernel is a small share of the work; three models on two
 * tiles keep the weight cache missing.
 *
 * Latency is timed from each request's scheduled send time: generator
 * lateness plus the server-reported admission-to-completion latency.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "kernel_replay.h"
#include "models/trainable.h"
#include "runtime/engine.h"
#include "serve/repository.h"
#include "serve/server.h"
#include "trace.h"

namespace pb {

namespace {

using namespace mirage;

constexpr int kIn = 16, kHidden = 32, kOut = 4;
constexpr int kModels = 3;
constexpr int kTiles = 2;
constexpr int kMaxBatch = 8;
constexpr double kInteractiveFrac = 0.9;
constexpr double kInteractiveDeadline = 0.050, kBatchDeadline = 0.500;
constexpr int kWarmupRequests = 2000;
constexpr int kOracleChunk = 256;
/// A run whose generator ran later than this at p99 (the interactive flush
/// window) did not offer the scheduled load; its meta line says so.
constexpr double kLatenessBound = 0.002;

struct PhaseSpec
{
    const char *name;
    double rate;  ///< Requests per second.
    double share; ///< Share of --seconds.
};
constexpr PhaseSpec kPhases[] = {{"light", 4000.0, 0.3},
                                 {"heavy", 16000.0, 0.7}};

const char *const kModelNames[kModels] = {"mlp_a", "mlp_b", "mlp_c"};

models::ModelShape
mlpShape()
{
    models::ModelShape shape;
    shape.name = "mlp";
    shape.layers = {{"fc1", kHidden, kIn, 1, 1, true},
                    {"fc2", kHidden, kHidden, 1, 1, true},
                    {"fc3", kOut, kHidden, 1, 1, true}};
    return shape;
}

const LayerMap &
mlpLayers()
{
    static const LayerMap map({{"fc1", false, kHidden, kIn},
                               {"fc2", false, kHidden, kHidden},
                               {"fc3", false, kOut, kHidden}});
    return map;
}

/** One phase's generated inputs: arrival offsets, classes, models, rows. */
struct Schedule
{
    std::vector<double> at_s;
    std::vector<serve::SloClass> slo;
    std::vector<int> model;
    std::vector<float> features; ///< at_s.size() x kIn.
};

Schedule
makeSchedule(uint64_t seed, int phase, double rate, double seconds)
{
    Rng rng = Rng::stream(seed, 100 + static_cast<uint64_t>(phase));
    const size_t n = static_cast<size_t>(std::max(1.0, std::round(rate * seconds)));
    Schedule s;
    s.at_s.reserve(n);
    s.features.reserve(n * kIn);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        t += -std::log(rng.uniformReal(1e-12, 1.0)) / rate;
        s.at_s.push_back(t);
        s.slo.push_back(rng.bernoulli(kInteractiveFrac)
                            ? serve::SloClass::Interactive
                            : serve::SloClass::Batch);
        s.model.push_back(static_cast<int>(rng.uniformInt(0, kModels - 1)));
        for (int f = 0; f < kIn; ++f)
            s.features.push_back(static_cast<float>(rng.gaussian()));
    }
    return s;
}

uint64_t
hashSchedule(const Schedule &s, uint64_t h)
{
    h = fnv1a(s.at_s.data(), s.at_s.size() * sizeof(double), h);
    h = fnv1a(s.slo.data(), s.slo.size() * sizeof(serve::SloClass), h);
    h = fnv1a(s.model.data(), s.model.size() * sizeof(int), h);
    return fnv1a(s.features.data(), s.features.size() * sizeof(float), h);
}

std::vector<serve::InferenceRequest>
makeRequests(const Schedule &s)
{
    std::vector<serve::InferenceRequest> reqs(s.at_s.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].model = kModelNames[s.model[i]];
        reqs[i].slo = s.slo[i];
        reqs[i].input = nn::Tensor({1, kIn});
        std::copy(s.features.begin() + static_cast<std::ptrdiff_t>(i * kIn),
                  s.features.begin() + static_cast<std::ptrdiff_t>((i + 1) * kIn),
                  reqs[i].input.data());
    }
    return reqs;
}


struct PhaseOut
{
    double wall_s = 0.0;
    uint64_t attempted = 0, failed = 0, good = 0;
    std::vector<double> late_s;        ///< Sent minus scheduled.
    std::vector<double> interactive_s; ///< Lateness + server latency.
    std::vector<double> queue_s, exec_s, modeled_us, modeled_uj;
    std::set<uint64_t> batches;
    std::vector<float> outputs; ///< kOut per request (oracle input).
    std::vector<uint8_t> valid; ///< Reply arrived with the right shape.
    double cache_hit_rate = 0.0;
    double stats_us = 0.0;
};

struct Run
{
    double setup_s = 0.0;
    std::vector<PhaseOut> phases;
    runtime::RuntimeReport engine;
    int64_t start_ns = 0, end_ns = 0;
    std::vector<Span> gemm_spans;
};

struct Stack
{
    std::unique_ptr<serve::ModelRepository> repo;
    std::unique_ptr<runtime::RuntimeEngine> engine;
    std::unique_ptr<serve::InferenceServer> server;
    std::vector<std::unique_ptr<TimedBackend>> backends;

    void
    reset()
    {
        server.reset(); // borrows the repository and engine: goes first
        engine.reset();
        repo.reset();
        backends.clear();
    }
};

Run
runOnce(const Options &opts, const std::vector<Schedule> &schedules,
        Tracer *tracer)
{
    Run run;
    Stack st;
    std::vector<std::vector<serve::InferenceRequest>> requests;
    run.setup_s = medianSetupSeconds(kSetupReps, [&] {
        st.reset();
        requests.clear();
        for (const Schedule &s : schedules)
            requests.push_back(makeRequests(s));
        st.repo = std::make_unique<serve::ModelRepository>(
            arch::MirageConfig{}, Rng::stream(opts.seed, 3).seed());
        serve::ModelFactory factory = [&](nn::GemmBackend *backend, Rng &rng) {
            if (tracer != nullptr) {
                st.backends.push_back(std::make_unique<TimedBackend>(
                    backend, *tracer, mlpLayers(), nullptr));
                backend = st.backends.back().get();
            }
            return models::makeMlp(kIn, kHidden, kOut, backend, rng);
        };
        for (const char *name : kModelNames)
            st.repo->publishModel(name, mlpShape(), factory);
        runtime::EngineConfig ecfg;
        ecfg.tiles = kTiles;
        ecfg.queue_capacity = 256;
        st.engine = std::make_unique<runtime::RuntimeEngine>(ecfg);
        serve::ServerConfig scfg;
        scfg.max_batch = kMaxBatch;
        scfg.queue_capacity = 0;
        for (const Schedule &s : schedules)
            scfg.queue_capacity += s.at_s.size();
        scfg.queue_capacity += kWarmupRequests + 1;
        scfg.interactive = {0.002, kInteractiveDeadline};
        scfg.batch = {0.020, kBatchDeadline};
        st.server = std::make_unique<serve::InferenceServer>(*st.repo,
                                                             *st.engine, scfg);
        // Warm-up: the first light-phase requests, as fast as admitted.
        std::vector<std::future<serve::InferenceReply>> warm;
        const auto &light = requests.front();
        for (int i = 0; i < kWarmupRequests; ++i)
            warm.push_back(st.server->submit(light[static_cast<size_t>(i) %
                                                   light.size()]));
        for (auto &f : warm)
            f.get();
        st.server->drain();
    });

    if (tracer != nullptr)
        run.start_ns = tracer->nowNs();
    serve::ServerStats before = st.server->stats();
    for (size_t p = 0; p < schedules.size(); ++p) {
        const Schedule &s = schedules[p];
        std::vector<serve::InferenceRequest> &reqs = requests[p];
        const size_t n = s.at_s.size();
        PhaseOut out;
        out.outputs.assign(n * kOut, 0.0f);
        out.valid.assign(n, 0);
        std::vector<std::future<serve::InferenceReply>> futs;
        futs.reserve(n);
        std::vector<Clock::time_point> sent(n);
        const Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < n; ++i) {
            const Clock::time_point due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s.at_s[i]));
            // Sleep, never spin: a spinning generator takes a core from the
            // server on a 4-core host. Its lateness is part of each latency.
            std::this_thread::sleep_until(due);
            sent[i] = Clock::now();
            out.late_s.push_back(secondsBetween(due, sent[i]));
            futs.push_back(st.server->submit(std::move(reqs[i])));
        }
        for (size_t i = 0; i < n; ++i) {
            ++out.attempted;
            serve::InferenceReply r;
            try {
                r = futs[i].get();
            } catch (const std::exception &e) {
                std::fprintf(stderr, "serve_mlp: request failed: %s\n",
                             e.what());
                ++out.failed;
                continue;
            }
            if (!r.error.empty() || r.output.shape() != std::vector<int>{1, kOut}) {
                ++out.failed;
                continue;
            }
            out.valid[i] = 1;
            std::copy(r.output.data(), r.output.data() + kOut,
                      out.outputs.begin() + static_cast<std::ptrdiff_t>(i * kOut));
            const double total = out.late_s[i] + r.latency_s;
            const bool inter = s.slo[i] == serve::SloClass::Interactive;
            if (inter)
                out.interactive_s.push_back(total);
            if (total <= (inter ? kInteractiveDeadline : kBatchDeadline))
                ++out.good;
            out.queue_s.push_back(r.queue_s);
            out.exec_s.push_back(1e-9 * static_cast<double>(r.record.execute_ns));
            out.modeled_us.push_back(1e6 * r.model_time_s / r.batch_size);
            out.modeled_uj.push_back(1e6 * r.energy_j);
            out.batches.insert(r.record.batch_seq);
            if (tracer != nullptr) {
                Span span;
                span.cat = "request";
                span.t0_ns = tracer->toNs(sent[i]);
                span.t1_ns = span.t0_ns + static_cast<int64_t>(1e9 * r.latency_s);
                span.tid = threadIndex();
                span.id = r.record.id;
                tracer->record(span);
            }
        }
        out.wall_s = secondsSince(t0);
        const Clock::time_point st0 = Clock::now();
        const serve::ServerStats after = st.server->stats();
        out.stats_us = 1e6 * secondsSince(st0);
        const uint64_t hits = after.cache_hits - before.cache_hits;
        const uint64_t lookups = hits + after.cache_misses - before.cache_misses;
        out.cache_hit_rate =
            lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                        : 0.0;
        before = after;
        run.phases.push_back(std::move(out));
    }
    if (tracer != nullptr)
        run.end_ns = tracer->nowNs();
    run.engine = st.engine->report();

    // Oracle: each reply equals a direct forward of its entry's net on the
    // same input, run under the entry's exec_mu after the phases.
    for (size_t p = 0; p < schedules.size(); ++p) {
        const Schedule &s = schedules[p];
        PhaseOut &out = run.phases[p];
        if (opts.corrupt)
            out.outputs[0] = -out.outputs[0] - 1.0f;
        for (int m = 0; m < kModels; ++m) {
            std::vector<size_t> rows;
            for (size_t i = 0; i < s.at_s.size(); ++i)
                if (s.model[i] == m && out.valid[i])
                    rows.push_back(i);
            std::shared_ptr<serve::ServedModel> entry =
                st.repo->acquire(kModelNames[m]);
            for (size_t c = 0; c < rows.size(); c += kOracleChunk) {
                const size_t cnt = std::min<size_t>(kOracleChunk, rows.size() - c);
                nn::Tensor x({static_cast<int>(cnt), kIn});
                for (size_t r = 0; r < cnt; ++r)
                    std::copy_n(s.features.begin() +
                                    static_cast<std::ptrdiff_t>(rows[c + r] * kIn),
                                kIn, x.data() + r * kIn);
                nn::Tensor y;
                {
                    std::lock_guard<std::mutex> lk(entry->exec_mu);
                    y = entry->net->forward(x, /*training=*/false);
                }
                for (size_t r = 0; r < cnt; ++r) {
                    if (!bitEqual(y.data() + r * kOut,
                                  out.outputs.data() + rows[c + r] * kOut,
                                  kOut)) {
                        ++out.failed;
                        out.valid[rows[c + r]] = 0;
                    }
                }
            }
        }
    }
    for (const auto &b : st.backends)
        for (const Span &s : b->spans())
            if (s.t0_ns >= run.start_ns && s.t1_ns <= run.end_ns)
                run.gemm_spans.push_back(s);
    st.reset();
    return run;
}

} // namespace

Result
runServeMlp(const Options &opts)
{
    Result res;
    std::vector<Schedule> schedules;
    uint64_t hash = fnv1a(nullptr, 0);
    for (int p = 0; p < 2; ++p) {
        schedules.push_back(makeSchedule(opts.seed, p, kPhases[p].rate,
                                         kPhases[p].share * opts.seconds));
        hash = hashSchedule(schedules.back(), hash);
    }
    res.inputs_hash = hash;
    if (opts.fingerprint)
        return res;

    const Run plain = runOnce(opts, schedules, nullptr);
    const double rss = peakRssMb();

    auto e2e = [&](const Run &r, std::vector<Metric> &set) {
        const PhaseOut &h = r.phases[1];
        res.add(set, "setup_s", r.setup_s, "s");
        res.add(set, "peak_rss_mb", rss, "MB");
        res.add(set, "p50_ms", 1e3 * median(h.interactive_s), "ms");
        res.add(set, "p90_ms", 1e3 * percentile(h.interactive_s, 0.9), "ms");
        // Open loop: until the server saturates, this follows the offered
        // rate; it drops once replies miss deadlines or the backlog grows.
        res.add(set, "throughput_per_s", static_cast<double>(h.good) / h.wall_s,
                "1/s");
        res.add(set, "modeled_us", mean(h.modeled_us), "sim_us");
        res.add(set, "modeled_uj", mean(h.modeled_uj), "sim_uJ");
    };
    e2e(plain, res.e2e);
    for (const PhaseOut &p : plain.phases) {
        res.attempted += p.attempted;
        res.failed += p.failed;
    }
    const PhaseOut &light = plain.phases[0], &heavy = plain.phases[1];
    res.add(res.report, "light.p99_ms", 1e3 * percentile(light.interactive_s, 0.99),
            "ms");
    res.add(res.report, "heavy.p50_ms", 1e3 * median(heavy.interactive_s), "ms");
    res.add(res.report, "heavy.p99_ms", 1e3 * percentile(heavy.interactive_s, 0.99),
            "ms");
    res.add(res.report, "heavy.goodput_rps",
            static_cast<double>(heavy.good) / heavy.wall_s, "1/s");
    for (size_t p = 0; p < plain.phases.size(); ++p) {
        const std::string name = kPhases[p].name;
        res.add(res.report, "loadgen.late_p99_ms." + name,
                1e3 * percentile(plain.phases[p].late_s, 0.99), "ms");
        res.meta.emplace_back(name + "_requests",
                              std::to_string(plain.phases[p].attempted));
        res.meta.emplace_back(name + "_interactive_samples",
                              std::to_string(plain.phases[p].interactive_s.size()));
        res.meta.emplace_back(name + "_rate_per_s",
                              std::to_string(static_cast<int>(kPhases[p].rate)));
        char late[64];
        std::snprintf(late, sizeof late, "p50 %.4f ms p99 %.4f ms max %.4f ms",
                      1e3 * median(plain.phases[p].late_s),
                      1e3 * percentile(plain.phases[p].late_s, 0.99),
                      1e3 * percentile(plain.phases[p].late_s, 1.0));
        res.meta.emplace_back(name + "_generator_lateness", late);
    }
    double late_p99 = 0.0;
    for (const PhaseOut &p : plain.phases)
        late_p99 = std::max(late_p99, percentile(p.late_s, 0.99));
    res.meta.emplace_back("loadgen_valid",
                          late_p99 <= kLatenessBound
                              ? "yes"
                              : "no: generator p99 lateness over 2 ms");
    res.meta.emplace_back("tiles", std::to_string(kTiles));
    res.meta.emplace_back("replicas", "0");
    res.meta.emplace_back("models", std::to_string(kModels));
    res.meta.emplace_back("setup_samples", std::to_string(kSetupReps));

    if (!opts.trace)
        return res;

    Tracer tracer;
    const Run traced = runOnce(opts, schedules, &tracer);
    for (const PhaseOut &p : traced.phases) {
        res.attempted += p.attempted;
        res.failed += p.failed;
    }
    std::vector<Metric> traced_e2e;
    e2e(traced, traced_e2e);
    addTraceOverhead(res, traced_e2e);

    double requests = 0.0;
    for (const PhaseOut &p : traced.phases)
        requests += static_cast<double>(p.attempted);
    const double util =
        reportLayers(res, mlpLayers(), traced.gemm_spans, requests, true);
    const KernelPhases k = addKernelLayerMetrics(
        res, shapeMix(traced.gemm_spans), requests, util, opts.seed);
    res.add(res.report, "nn.backend_overhead_share", k.overhead_share, "ratio");

    const PhaseOut &th = traced.phases[1];
    res.add(res.report, "serve.queue_p50_ms", 1e3 * median(th.queue_s), "ms");
    res.add(res.report, "serve.queue_p99_ms", 1e3 * percentile(th.queue_s, 0.99),
            "ms");
    res.add(res.report, "serve.exec_p50_ms", 1e3 * median(th.exec_s), "ms");
    res.add(res.report, "serve.exec_p99_ms", 1e3 * percentile(th.exec_s, 0.99),
            "ms");
    res.add(res.report, "serve.batch_size_mean",
            static_cast<double>(th.queue_s.size()) /
                static_cast<double>(std::max<size_t>(1, th.batches.size())),
            "count");
    res.add(res.report, "serve.cache_hit_rate", th.cache_hit_rate, "ratio");
    res.add(res.report, "serve.stats_us.light", traced.phases[0].stats_us, "us");
    res.add(res.report, "serve.stats_us.heavy", th.stats_us, "us");
    const runtime::RuntimeReport &rep = traced.engine;
    res.add(res.report, "runtime.utilization", rep.utilization(), "ratio");
    res.add(res.report, "runtime.jobs_per_batch",
            rep.batches_dispatched > 0
                ? static_cast<double>(rep.jobs_completed) /
                      static_cast<double>(rep.batches_dispatched)
                : 1.0,
            "count");
    res.add(res.report, "runtime.job_retries",
            static_cast<double>(rep.job_retries), "count");
    res.add(res.report, "runtime.max_queue_depth",
            static_cast<double>(rep.max_queue_depth), "count");
    for (size_t p = 0; p < traced.phases.size(); ++p)
        res.add(res.report,
                std::string("loadgen.late_p99_ms.traced.") + kPhases[p].name,
                1e3 * percentile(traced.phases[p].late_s, 0.99), "ms");

    std::vector<Span> all = tracer.spans();
    all.insert(all.end(), traced.gemm_spans.begin(), traced.gemm_spans.end());
    const std::string path = opts.trace_dir + "/serve_mlp-seed" +
                             std::to_string(opts.seed) + ".trace.json";
    if (!tracer.writeChrome(path, all, &mlpLayers()))
        throw std::runtime_error("cannot write " + path);
    res.meta.emplace_back("trace_file", path);
    return res;
}

} // namespace pb
