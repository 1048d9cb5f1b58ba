/**
 * @file
 * The repository benchmark's program (perfbench).
 *
 *   perfbench --workload <train_cnn|serve_mlp|engine_gemm> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-dir <dir>] [--corrupt]
 *             [--fingerprint]
 *
 * Prints run metadata (`meta` lines), every workload metric by name with
 * its unit (`metric <name> <value> <unit>` lines), and as the last line one
 * JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics of an untraced run, or with --trace 1 the per-layer metrics of a
 * traced rerun. Exits non-zero when an output oracle fails.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "runtime/thread_pool.h"

namespace pb {

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx =
        static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

bool
bitEqual(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

void
addTraceOverhead(Result &res, const std::vector<Metric> &traced)
{
    for (size_t i = 0; i < traced.size() && i < res.e2e.size(); ++i)
        res.add(res.report, "trace_overhead." + traced[i].name,
                traced[i].value - res.e2e[i].value, traced[i].unit);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace pb

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <train_cnn|serve_mlp|"
                 "engine_gemm> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>] [--corrupt] [--fingerprint]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        try {
            if (arg == "--workload" && has_value)
                opts.workload = argv[++i];
            else if (arg == "--seed" && has_value)
                opts.seed = std::stoull(argv[++i]);
            else if (arg == "--seconds" && has_value)
                opts.seconds = std::stod(argv[++i]);
            else if (arg == "--trace" && has_value)
                opts.trace = std::stoi(argv[++i]) != 0;
            else if (arg == "--trace-dir" && has_value)
                opts.trace_dir = argv[++i];
            else if (arg == "--corrupt")
                opts.corrupt = true;
            else if (arg == "--fingerprint")
                opts.fingerprint = true;
            else
                return usage(("unknown or incomplete argument " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!(opts.seconds > 0.0 && opts.seconds <= 600.0))
        return usage("--seconds must be in (0, 600]");

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    pb::Result (*run)(const pb::Options &) = nullptr;
    // engine_gemm runs the library's default pool, one worker per hardware
    // thread. On a shared 4-vCPU host, train_cnn's step (a chain of
    // parallelFor joins) waited on whichever vCPU a neighbour held: with 4
    // workers its median step time spread 47% run to run, with 2 about 10%.
    // serve_mlp keeps one worker, because idle workers took the cores its
    // single load generator needs (sends ran ~11 ms late at p99 with 4
    // workers, under 2 ms with one) and the offered load was not the
    // scheduled one.
    int pool_threads = static_cast<int>(hw);
    if (opts.workload == "train_cnn") {
        run = pb::runTrainCnn;
        pool_threads = std::max(1, static_cast<int>(hw) / 2);
    } else if (opts.workload == "serve_mlp") {
        run = pb::runServeMlp;
        pool_threads = 1;
    } else if (opts.workload == "engine_gemm") {
        run = pb::runEngineGemm;
    } else {
        return usage("unknown --workload");
    }
    mirage::runtime::ThreadPool::setGlobalThreads(pool_threads);

    if (!opts.fingerprint)
        std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                    opts.workload.c_str(),
                    static_cast<unsigned long long>(opts.seed), opts.seconds,
                    opts.trace ? 1 : 0);
    pb::Result res;
    try {
        res = run(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }

    if (opts.fingerprint) {
        std::printf("inputs_fnv %016llx\n",
                    static_cast<unsigned long long>(res.inputs_hash));
        return 0;
    }

    std::printf("meta seed %llu\n", static_cast<unsigned long long>(opts.seed));
    std::printf("meta nproc %u\n", hw);
    std::printf("meta cpu %s\n", cpuModel().c_str());
    std::printf("meta pool_threads %d\n", pool_threads);
    std::printf("meta inputs_fnv %016llx\n",
                static_cast<unsigned long long>(res.inputs_hash));
    for (const auto &[k, v] : res.meta)
        std::printf("meta %s %s\n", k.c_str(), v.c_str());

    const double failed_frac =
        res.attempted > 0 ? static_cast<double>(res.failed) /
                                static_cast<double>(res.attempted)
                          : 1.0;
    res.add(res.report, "failed_frac", failed_frac, "ratio");
    bool finite = true;
    for (const auto *set : {&res.e2e, &res.layer, &res.report}) {
        for (const pb::Metric &m : *set) {
            std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
            finite = finite && std::isfinite(m.value);
        }
    }
    if (!finite)
        std::cerr << "perfbench: a metric is not finite\n";
    const bool correct = res.correct && res.failed == 0 && finite &&
                         res.attempted > 0;

    const std::vector<pb::Metric> &out = opts.trace ? res.layer : res.e2e;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(out[i].value) ? out[i].value : 0.0);
        json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
                num + ", \"unit\": \"" + out[i].unit + "\"}";
    }
    json += "}}";
    std::fflush(stdout);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
