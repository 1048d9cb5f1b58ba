#ifndef MIRAGE_OBS_METRICS_H
#define MIRAGE_OBS_METRICS_H

/**
 * @file
 * Process-wide metrics registry: named counters, gauges and log2-bucketed
 * latency histograms shared by the runtime, serving and training layers.
 *
 * Design contract (see tests/test_alloc_guard.cpp and bench/obs_overhead.cpp):
 *
 *  - Handles are pre-registered. `registry.counter("x")` does one map lookup
 *    under a mutex and returns a reference that stays valid for the process
 *    lifetime; hot paths hold the reference (typically via a function-local
 *    static) and never touch the map again.
 *  - Recording is allocation-free and lock-free: one relaxed load of the
 *    enable flag plus one relaxed fetch_add on a per-thread shard. Shards
 *    are cache-line padded so concurrent recorders do not false-share.
 *  - Aggregation happens on read (value()/snapshot()/renderText). Readers
 *    sum the shards with relaxed loads; concurrent recording is safe and
 *    merely makes the read a point-in-time approximation.
 *  - Recording never reads the wall clock and never feeds numeric state, so
 *    instrumentation cannot perturb the determinism contracts.
 *
 * Gating: `obs::enabled()` is initialized from MIRAGE_OBS (default on;
 * "0"/"false"/"off" disable) and can be flipped at runtime with
 * setEnabled(). When off, record calls early-out after a single relaxed
 * atomic load — a few ns, asserted in tests/test_obs.cpp.
 *
 * Units: histograms and *_ns counters store integer nanoseconds; *_nj
 * counters store integer nanojoules. toNanos() converts the double
 * seconds/joules the perf/energy models produce.
 */

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace mirage {
namespace obs {

/** True when metric recording is on (MIRAGE_OBS, default on). */
bool enabled();

/** Flips metric recording at runtime (overrides MIRAGE_OBS). */
void setEnabled(bool on);

/** Converts seconds to integer nanoseconds (or joules to nanojoules),
 *  clamping negatives to zero. */
inline uint64_t
toNanos(double seconds)
{
    if (!(seconds > 0.0))
        return 0;
    return static_cast<uint64_t>(seconds * 1e9 + 0.5);
}

namespace detail {

/// Shard count for counters/histograms. A power of two; threads hash to a
/// shard by registration order, so up to kShards recorders never contend.
constexpr int kShards = 16;

/// Returns this thread's shard index (assigned round-robin on first use).
size_t threadShard();

struct alignas(64) PaddedU64
{
    std::atomic<uint64_t> v{0};
};

} // namespace detail

/** Monotonic counter. add() is allocation-free and lock-free. */
class Counter
{
  public:
    explicit Counter(std::string name) : name_(std::move(name)) {}

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    add(uint64_t delta = 1)
    {
        if (!enabled())
            return;
        shards_[detail::threadShard()].v.fetch_add(delta,
                                                   std::memory_order_relaxed);
    }

    /** Aggregated total (relaxed sum over the shards). */
    uint64_t value() const;

    /** Zeroes every shard (tests and bench warm-up). */
    void reset();

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    detail::PaddedU64 shards_[detail::kShards];
};

/** Last-write-wins gauge (signed; e.g. queue depth, retired pools). */
class Gauge
{
  public:
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void
    set(int64_t v)
    {
        if (!enabled())
            return;
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(int64_t delta)
    {
        if (!enabled())
            return;
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0, std::memory_order_relaxed); }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::atomic<int64_t> value_{0};
};

/** Point-in-time aggregate of a Histogram. Quantiles are bucket midpoints
 *  of an HDR-style log2 layout with 8 sub-buckets per octave, so the
 *  relative error is bounded by half a bucket width: <= 1/16 (6.25%). */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0; ///< low edge of the lowest non-empty bucket
    double max = 0.0; ///< midpoint of the highest non-empty bucket
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Fixed-bucket latency histogram over uint64 values (nanoseconds by
 * convention). Buckets are exact below 16 and log2 with 8 linear
 * sub-buckets per octave above, covering the full uint64 range in 496
 * buckets; record() is one relaxed fetch_add on a per-thread shard row.
 */
class Histogram
{
  public:
    /// Sub-bucket bits per octave: 8 linear subdivisions.
    static constexpr int kSubBits = 3;
    static constexpr int kSub = 1 << kSubBits;
    /// Highest index is ((63 - kSubBits + 1) << kSubBits) | (kSub - 1).
    static constexpr int kBuckets = ((63 - kSubBits + 1) << kSubBits) + kSub;

    explicit Histogram(std::string name) : name_(std::move(name)) {}

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Records `count` samples of `value`: the same bucket counts and sum
     *  as `count` single records, in one update. */
    void
    record(uint64_t value, uint64_t count = 1)
    {
        if (!enabled())
            return;
        Shard &s = shards_[detail::threadShard()];
        s.buckets[bucketIndex(value)].fetch_add(count,
                                                std::memory_order_relaxed);
        s.sum.fetch_add(value * count, std::memory_order_relaxed);
    }

    /** Records a duration/energy given in seconds/joules as integer nanos. */
    void recordNanosOf(double seconds) { record(toNanos(seconds)); }

    HistogramSnapshot snapshot() const;

    /** Total recorded samples (cheaper than a full snapshot). */
    uint64_t count() const;

    void reset();

    const std::string &name() const { return name_; }

    /** Bucket index for a value; exposed for tests. */
    static int bucketIndex(uint64_t value);

    /** [low, high) edges of bucket `index`; exposed for tests/exposition. */
    static void bucketBounds(int index, double *low, double *high);

    /** Fills `out[kBuckets]` with the aggregated per-bucket counts. */
    void aggregate(uint64_t *out) const;

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> buckets[kBuckets] = {};
        std::atomic<uint64_t> sum{0};
    };

    std::string name_;
    Shard shards_[detail::kShards];
};

/**
 * Process-wide registry. counter()/gauge()/histogram() register on first
 * use (mutex + map insert) and return stable references; re-registering a
 * name returns the same handle. Exposition walks the registry in name
 * order.
 */
class MetricsRegistry
{
  public:
    /** The process-wide instance (leaked singleton: safe to record from
     *  static destructors and detached threads). */
    static MetricsRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Looks a metric up without creating it; nullptr when absent. */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /** Prometheus-style text exposition: dotted names are sanitized to
     *  underscores and prefixed `mirage_`; histograms emit cumulative
     *  `_bucket{le="..."}` lines for non-empty buckets plus `_sum` and
     *  `_count`. */
    void renderText(std::ostream &os) const;

    /** JSON dump: {"counters": {...}, "gauges": {...},
     *  "histograms": {name: {count, sum, mean, min, max, p50, p95, p99}}}.
     *  Consumed by bench --metrics and bench/check_regression.py. */
    void renderJson(std::ostream &os) const;

    /** renderJson to `path`; returns false (and warns) on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

    /** Zeroes every registered metric (handles stay valid). Tests only. */
    void reset();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  private:
    MetricsRegistry();
    ~MetricsRegistry();

    struct Impl;
    Impl *impl_;
};

} // namespace obs
} // namespace mirage

#endif // MIRAGE_OBS_METRICS_H
