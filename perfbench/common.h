#ifndef MIRAGE_PERFBENCH_COMMON_H
#define MIRAGE_PERFBENCH_COMMON_H

/**
 * @file
 * Shared vocabulary of the repository benchmark: run options, the result
 * every workload fills in, timing helpers and order statistics.
 *
 * Every workload reports three metric sets:
 *   - `e2e`: the end-to-end metrics named in BENCHMARK.json, the same names
 *     on every workload (the JSON result line of an untraced run);
 *   - `layer`: the per-layer metrics named in BENCHMARK.json, again the same
 *     names on every workload (the JSON result line of a traced run);
 *   - `report`: every workload-specific metric (step_ms, heavy.p99_ms,
 *     nn.fc1.fwd.ms, ...), printed as `metric <name> <value> <unit>` lines.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Flip one output value before the oracle runs (oracle self-check).
    bool corrupt = false;
    /// Print the fingerprint of the seeded inputs and exit (no timing).
    bool fingerprint = false;
    /// Directory for the Chrome trace of a traced run.
    std::string trace_dir = ".";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run produces. */
struct Result
{
    std::vector<Metric> e2e;
    std::vector<Metric> layer;
    std::vector<Metric> report;
    /// Run metadata: seed, hardware, tiles/replicas, sample counts.
    std::vector<std::pair<std::string, std::string>> meta;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /// Every oracle held (a mismatch also counts into `failed`).
    bool correct = true;
    /// FNV-1a hash of the generated inputs (same seed, same hash).
    uint64_t inputs_hash = 0;

    void
    add(std::vector<Metric> &set, std::string name, double value,
        std::string unit)
    {
        set.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty. */
double percentile(std::vector<double> v, double q);

double median(std::vector<double> v);

double mean(const std::vector<double> &v);

/** FNV-1a over raw bytes, chainable through `h`. */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 14695981039346656037ull);

/** True when two float arrays are bit-identical. */
bool bitEqual(const float *a, const float *b, size_t n);

/** Median of `reps` timed calls of `setup` [s]; the last call's state stays. */
template <typename F>
double
medianSetupSeconds(int reps, F &&setup)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        setup();
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

/** Adds `trace_overhead.<name>`: each traced metric minus res.e2e's. */
void addTraceOverhead(Result &res, const std::vector<Metric> &traced);

/** Peak resident set size of this process [MB]. */
double peakRssMb();

/** Set-up repetitions behind the reported setup_s median. */
constexpr int kSetupReps = 9;

Result runTrainCnn(const Options &opts);
Result runServeMlp(const Options &opts);
Result runEngineGemm(const Options &opts);

} // namespace pb

#endif // MIRAGE_PERFBENCH_COMMON_H
