#include "obs/fidelity.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mirage {
namespace obs {
namespace fidelity {

namespace detail {
std::atomic<int64_t> g_probe_interval{-1};
} // namespace detail

namespace {

bool
envWordIs(const char *value, const char *a, const char *b, const char *c)
{
    return std::strcmp(value, a) == 0 || std::strcmp(value, b) == 0 ||
           std::strcmp(value, c) == 0;
}

/// Per-layer probe aggregates. Histogram/Counter handles live in
/// MetricsRegistry (stable for the process); the Series handle is immortal
/// (see the series registry below), so cached entries never dangle.
struct LayerEntry
{
    Counter *probes = nullptr;
    Histogram *rmse_bits = nullptr;
    Histogram *maxrel_bits = nullptr;
    Series *err = nullptr;
};

/// Process-wide fidelity state (leaked singleton, same lifetime contract
/// as MetricsRegistry: safe from static destructors and detached threads).
struct State
{
    std::mutex layers_mu;
    std::map<std::string, LayerEntry> layers;

    std::mutex series_mu;
    std::map<std::string, Series *> series;

    std::mutex listeners_mu;
    std::map<uint64_t, std::function<void(const DriftAlert &)>> listeners;
    uint64_t next_listener = 1;

    /// Every fidelity.* metric handle ever registered, so resetForTest can
    /// zero them without a prefix-reset API on MetricsRegistry.
    std::mutex handles_mu;
    std::vector<Counter *> counters;
    std::vector<Gauge *> gauges;
    std::vector<Histogram *> histograms;

    std::atomic<int64_t> rns_margin_min{INT64_MAX};
    std::atomic<int64_t> snr_db_min{INT64_MAX};
};

State &
state()
{
    static State *s = new State;
    return *s;
}

template <typename T>
void
track(std::vector<T *> &list, T *handle)
{
    if (std::find(list.begin(), list.end(), handle) == list.end())
        list.push_back(handle);
}

Counter &
fidCounter(const std::string &name)
{
    Counter &c = MetricsRegistry::global().counter(name);
    State &st = state();
    std::lock_guard<std::mutex> lock(st.handles_mu);
    track(st.counters, &c);
    return c;
}

Gauge &
fidGauge(const std::string &name)
{
    Gauge &g = MetricsRegistry::global().gauge(name);
    State &st = state();
    std::lock_guard<std::mutex> lock(st.handles_mu);
    track(st.gauges, &g);
    return g;
}

Histogram &
fidHistogram(const std::string &name)
{
    Histogram &h = MetricsRegistry::global().histogram(name);
    State &st = state();
    std::lock_guard<std::mutex> lock(st.handles_mu);
    track(st.histograms, &h);
    return h;
}

/// Lowers the atomic running minimum and mirrors it into the gauge.
/// Last-write races between near-simultaneous improvements can leave the
/// gauge one update stale; the atomic itself is exact and re-converges on
/// the next improvement.
void
lowerMin(std::atomic<int64_t> &min_slot, Gauge &gauge, int64_t candidate)
{
    int64_t cur = min_slot.load(std::memory_order_relaxed);
    while (candidate < cur) {
        if (min_slot.compare_exchange_weak(cur, candidate,
                                           std::memory_order_relaxed)) {
            gauge.set(min_slot.load(std::memory_order_relaxed));
            return;
        }
    }
}

int
bitWidth128(unsigned __int128 v)
{
    const uint64_t hi = static_cast<uint64_t>(v >> 64);
    if (hi != 0)
        return 128 - __builtin_clzll(hi);
    const uint64_t lo = static_cast<uint64_t>(v);
    return (lo != 0) ? 64 - __builtin_clzll(lo) : 0;
}

/// "Matching bits" encoding of a relative error: round(-log2(err)) clamped
/// to [0, 64]. err <= 0 (bit-exact) maps to 64; err >= 1 maps to 0.
uint64_t
errorBits(double relative_error)
{
    if (!(relative_error > 0.0))
        return 64;
    const double bits = -std::log2(relative_error);
    if (bits <= 0.0)
        return 0;
    if (bits >= 64.0)
        return 64;
    return static_cast<uint64_t>(std::lround(bits));
}

thread_local const char *t_layer = "";

/// JSON-safe number: shortest round-trip float, non-finites mapped to 0.
std::string
jnum(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
jsonHistogram(std::ostream &os, const Histogram &h)
{
    const HistogramSnapshot s = h.snapshot();
    os << "{\"count\": " << s.count << ", \"sum\": " << jnum(s.sum)
       << ", \"mean\": " << jnum(s.mean) << ", \"min\": " << jnum(s.min)
       << ", \"max\": " << jnum(s.max) << ", \"p50\": " << jnum(s.p50)
       << ", \"p95\": " << jnum(s.p95) << ", \"p99\": " << jnum(s.p99) << "}";
}

uint64_t
counterValue(const char *name)
{
    const Counter *c = MetricsRegistry::global().findCounter(name);
    return c ? c->value() : 0;
}

} // namespace

// ---------------------------------------------------------------------------
// Probe gating

namespace detail {

int64_t
initProbeInterval()
{
    const char *env = std::getenv("MIRAGE_FIDELITY");
    int64_t init = 0;
    if (env != nullptr && *env != '\0') {
        if (envWordIs(env, "0", "off", "false")) {
            init = 0;
        } else if (envWordIs(env, "1", "on", "true")) {
            init = 1;
        } else {
            char *end = nullptr;
            const long long parsed = std::strtoll(env, &end, 10);
            if (end != nullptr && *end == '\0' && parsed > 0) {
                init = parsed;
            } else {
                MIRAGE_WARN("ignoring MIRAGE_FIDELITY: expected off/on or a "
                            "positive probe interval, got \"", env, "\"");
                init = 0;
            }
        }
    }
    int64_t expected = -1;
    // First caller wins; a concurrent setProbeInterval() is preserved.
    g_probe_interval.compare_exchange_strong(expected, init,
                                             std::memory_order_relaxed);
    return g_probe_interval.load(std::memory_order_relaxed);
}

} // namespace detail

void
setProbeInterval(uint64_t every_n)
{
    detail::g_probe_interval.store(static_cast<int64_t>(std::min<uint64_t>(
                                       every_n, INT64_MAX)),
                                   std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Layer attribution

LayerScope::LayerScope(const char *layer) : prev_(t_layer)
{
    t_layer = (layer != nullptr) ? layer : "";
}

LayerScope::~LayerScope() { t_layer = prev_; }

const char *
currentLayer()
{
    return t_layer;
}

// ---------------------------------------------------------------------------
// Shadow probes

void
recordProbe(const char *site, std::span<const float> actual,
            std::span<const float> reference)
{
    static Counter &probes = fidCounter("fidelity.probes");

    const size_t n = std::min(actual.size(), reference.size());
    double sum_sq_err = 0.0;
    double sum_sq_ref = 0.0;
    double max_abs_err = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(actual[i]) - reference[i];
        sum_sq_err += d * d;
        sum_sq_ref += static_cast<double>(reference[i]) * reference[i];
        max_abs_err = std::max(max_abs_err, std::fabs(d));
    }
    const double denom =
        (n > 0) ? std::sqrt(sum_sq_ref / static_cast<double>(n)) + 1e-30
                : 1e-30;
    const double rel_rmse =
        (n > 0) ? std::sqrt(sum_sq_err / static_cast<double>(n)) / denom : 0.0;
    const double rel_max = max_abs_err / denom;

    const char *layer = currentLayer();
    const std::string label = (layer[0] != '\0') ? layer
                              : (site != nullptr && site[0] != '\0') ? site
                                                                     : "unknown";

    LayerEntry entry;
    {
        State &st = state();
        std::lock_guard<std::mutex> lock(st.layers_mu);
        LayerEntry &slot = st.layers[label];
        if (slot.probes == nullptr) {
            slot.probes = &fidCounter("fidelity.probe.calls." + label);
            slot.rmse_bits = &fidHistogram("fidelity.probe.rmse_bits." + label);
            slot.maxrel_bits =
                &fidHistogram("fidelity.probe.maxrel_bits." + label);
            // Error series alert on accuracy *loss* (bits dropping), not on
            // improvement.
            SeriesConfig cfg;
            cfg.alert_up = false;
            cfg.alert_down = true;
            slot.err = &series("fidelity.err." + label, cfg);
        }
        entry = slot;
    }

    const uint64_t rmse_bits = errorBits(rel_rmse);
    const uint64_t maxrel_bits = errorBits(rel_max);
    probes.add(1);
    entry.probes->add(1);
    entry.rmse_bits->record(rmse_bits);
    entry.maxrel_bits->record(maxrel_bits);
    // Outside the layers lock: the series may fan a drift alert out to
    // listeners, which must never run under fidelity locks.
    entry.err->observe(static_cast<double>(rmse_bits));
}

// ---------------------------------------------------------------------------
// Always-on health counters

int
recordRnsMargin(uint64_t modulus, int64_t accum_len)
{
    static Counter &checks = fidCounter("fidelity.rns.dot_checks");
    static Counter &risk = fidCounter("fidelity.rns.overflow_risk");
    static Histogram &used = fidHistogram("fidelity.rns.range_used_bits");
    static Gauge &min_gauge = fidGauge("fidelity.rns.overflow_margin_min");

    unsigned __int128 worst = 0;
    if (modulus > 1 && accum_len > 0) {
        const unsigned __int128 sq =
            static_cast<unsigned __int128>(modulus - 1) * (modulus - 1);
        worst = sq * static_cast<unsigned __int128>(accum_len);
    }
    const int used_bits = bitWidth128(worst);
    const int margin = 64 - used_bits;

    checks.add(1);
    used.record(static_cast<uint64_t>(used_bits));
    if (margin < 0)
        risk.add(1);
    lowerMin(state().rns_margin_min, min_gauge, margin);
    return margin;
}

void
noteRnsReducedFallback()
{
    static Counter &fallbacks = fidCounter("fidelity.rns.reduced_fallbacks");
    fallbacks.add(1);
}

bool
recordRnsOracle(std::span<const float> fast, std::span<const float> reference)
{
    static Counter &checks = fidCounter("fidelity.rns.oracle_checks");
    static Counter &mismatches = fidCounter("fidelity.rns.oracle_mismatches");

    const bool match = std::equal(
        fast.begin(), fast.end(), reference.begin(), reference.end(),
        [](float x, float y) {
            return std::bit_cast<uint32_t>(x) == std::bit_cast<uint32_t>(y);
        });
    checks.add(1);
    if (!match)
        mismatches.add(1);
    return match;
}

namespace {

struct BfpMetrics
{
    Counter &groups = fidCounter("fidelity.bfp.groups");
    Counter &clipped = fidCounter("fidelity.bfp.clipped_mantissas");
    Histogram &exponents = fidHistogram("fidelity.bfp.exponent_bias128");
};

BfpMetrics &
bfpMetrics()
{
    static BfpMetrics m;
    return m;
}

} // namespace

void
noteBfpGroup(int shared_exponent, int clipped_mantissas)
{
    BfpMetrics &m = bfpMetrics();
    m.groups.add(1);
    // Bias by +128 so the full float exponent range stays a valid
    // (non-negative) histogram value; clamp pathological inputs.
    const int biased = std::clamp(shared_exponent + 128, 0, 4096);
    m.exponents.record(static_cast<uint64_t>(biased));
    if (clipped_mantissas > 0)
        m.clipped.add(static_cast<uint64_t>(clipped_mantissas));
}

void
BfpGroupTally::flush()
{
    BfpMetrics &m = bfpMetrics();
    uint64_t groups = 0;
    for (int biased = lo_; biased <= hi_; ++biased) {
        if (exponents_[biased] == 0)
            continue;
        m.exponents.record(static_cast<uint64_t>(biased), exponents_[biased]);
        groups += exponents_[biased];
        exponents_[biased] = 0;
    }
    if (groups > 0)
        m.groups.add(groups);
    if (clipped_ > 0)
        m.clipped.add(clipped_);
    clipped_ = 0;
    lo_ = kMaxBiased + 1;
    hi_ = -1;
}

void
noteSnrDb(double snr_db)
{
    static Histogram &hist = fidHistogram("fidelity.photonic.snr_db");
    static Gauge &min_gauge = fidGauge("fidelity.photonic.snr_db_min");

    const int64_t db =
        (std::isfinite(snr_db) && snr_db > 0.0) ? std::llround(snr_db) : 0;
    hist.record(static_cast<uint64_t>(db));
    lowerMin(state().snr_db_min, min_gauge, db);
}

void
notePhotonicProbe(uint64_t residues_checked, uint64_t mismatches)
{
    static Counter &probes = fidCounter("fidelity.photonic.mvm_probes");
    static Counter &checked = fidCounter("fidelity.photonic.residue_checks");
    static Counter &errors = fidCounter("fidelity.photonic.residue_errors");

    probes.add(1);
    checked.add(residues_checked);
    if (mismatches > 0)
        errors.add(mismatches);
}

// ---------------------------------------------------------------------------
// Drift detection

void
DriftConfig::validate() const
{
    if (!(alpha > 0.0) || alpha > 1.0)
        throw std::invalid_argument("DriftConfig alpha must be in (0, 1]");
    if (!(slack >= 0.0))
        throw std::invalid_argument("DriftConfig slack must be >= 0");
    if (!(threshold > 0.0))
        throw std::invalid_argument("DriftConfig threshold must be > 0");
    if (min_samples < 1)
        throw std::invalid_argument("DriftConfig min_samples must be >= 1");
}

const char *
toString(DriftDirection direction)
{
    switch (direction) {
      case DriftDirection::Up: return "up";
      case DriftDirection::Down: return "down";
    }
    return "?";
}

DriftDetector::DriftDetector(DriftConfig cfg) : cfg_(cfg) { cfg_.validate(); }

std::optional<DriftAlert>
DriftDetector::observe(double t_s, double value)
{
    if (!std::isfinite(t_s))
        t_s = last_t_;
    if (t_s < last_t_)
        t_s = last_t_; // clock regressions clamp, mirroring SloMonitor
    last_t_ = t_s;

    ++samples_;
    if (samples_ == 1)
        ewma_ = value;
    else
        ewma_ = cfg_.alpha * value + (1.0 - cfg_.alpha) * ewma_;

    if (samples_ <= cfg_.min_samples) {
        // Cold start: the first min_samples observations define the
        // baseline (their running mean) and can never alert.
        baseline_ += (value - baseline_) / static_cast<double>(samples_);
        return std::nullopt;
    }

    const double d = ewma_ - baseline_;
    cusum_up_ = std::max(0.0, cusum_up_ + d - cfg_.slack);
    cusum_down_ = std::max(0.0, cusum_down_ - d - cfg_.slack);

    std::optional<DriftAlert> alert;
    if (cusum_up_ > cfg_.threshold) {
        if (!firing_up_) {
            firing_up_ = true;
            DriftAlert a;
            a.direction = DriftDirection::Up;
            a.at_s = t_s;
            a.value = ewma_;
            a.baseline = baseline_;
            a.cusum = cusum_up_;
            a.threshold = cfg_.threshold;
            a.samples = samples_;
            alert = a;
        }
    } else {
        firing_up_ = false;
    }
    if (cusum_down_ > cfg_.threshold) {
        // An up-alert on the same observation wins the (practically
        // impossible) tie; the down latch still arms so it stays
        // rising-edge-only.
        if (!firing_down_ && !alert) {
            DriftAlert a;
            a.direction = DriftDirection::Down;
            a.at_s = t_s;
            a.value = ewma_;
            a.baseline = baseline_;
            a.cusum = cusum_down_;
            a.threshold = cfg_.threshold;
            a.samples = samples_;
            alert = a;
        }
        firing_down_ = true;
    } else {
        firing_down_ = false;
    }
    return alert;
}

DriftStatus
DriftDetector::status() const
{
    DriftStatus s;
    s.samples = samples_;
    s.baseline = baseline_;
    s.ewma = ewma_;
    s.cusum_up = cusum_up_;
    s.cusum_down = cusum_down_;
    s.firing_up = firing_up_;
    s.firing_down = firing_down_;
    return s;
}

// ---------------------------------------------------------------------------
// Series registry + alert fan-out

struct Series::Impl
{
    mutable std::mutex mu;
    DriftDetector det;
    uint64_t next_index = 0;
    std::atomic<uint64_t> alerts{0};

    explicit Impl(const DriftConfig &cfg) : det(cfg) {}
};

namespace {

void
fanOut(const DriftAlert &alert)
{
    static Counter &alerts = fidCounter("fidelity.drift.alerts");
    alerts.add(1);
    FlightRecorder::global().trigger("fidelity_drift");

    std::vector<std::function<void(const DriftAlert &)>> listeners;
    {
        State &st = state();
        std::lock_guard<std::mutex> lock(st.listeners_mu);
        listeners.reserve(st.listeners.size());
        for (const auto &kv : st.listeners)
            listeners.push_back(kv.second);
    }
    for (const auto &fn : listeners)
        fn(alert);
}

} // namespace

Series::Series(std::string name, SeriesConfig cfg)
    : impl_(new Impl(cfg.drift)), name_(std::move(name)), cfg_(cfg)
{
}

void
Series::dispatch(std::optional<DriftAlert> alert)
{
    if (!alert)
        return;
    const bool wanted = (alert->direction == DriftDirection::Up)
                            ? cfg_.alert_up
                            : cfg_.alert_down;
    if (!wanted)
        return;
    alert->series = name_;
    impl_->alerts.fetch_add(1, std::memory_order_relaxed);
    fanOut(*alert);
}

void
Series::observe(double value)
{
    std::optional<DriftAlert> alert;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        const double t = static_cast<double>(impl_->next_index++);
        alert = impl_->det.observe(t, value);
    }
    dispatch(std::move(alert));
}

void
Series::observeAt(double t_s, double value)
{
    std::optional<DriftAlert> alert;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        ++impl_->next_index;
        alert = impl_->det.observe(t_s, value);
    }
    dispatch(std::move(alert));
}

DriftStatus
Series::status() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->det.status();
}

uint64_t
Series::alerts() const
{
    return impl_->alerts.load(std::memory_order_relaxed);
}

Series &
series(const std::string &name, const SeriesConfig &cfg)
{
    State &st = state();
    std::lock_guard<std::mutex> lock(st.series_mu);
    auto it = st.series.find(name);
    if (it != st.series.end())
        return *it->second;
    // Immortal, like MetricsRegistry handles: cached Series pointers stay
    // valid for the process lifetime (resetForTest only clears state).
    Series *s = new Series(name, cfg);
    st.series.emplace(name, s);
    return *s;
}

uint64_t
addAlertListener(std::function<void(const DriftAlert &)> fn)
{
    State &st = state();
    std::lock_guard<std::mutex> lock(st.listeners_mu);
    const uint64_t token = st.next_listener++;
    st.listeners.emplace(token, std::move(fn));
    return token;
}

void
removeAlertListener(uint64_t token)
{
    State &st = state();
    std::lock_guard<std::mutex> lock(st.listeners_mu);
    st.listeners.erase(token);
}

// ---------------------------------------------------------------------------
// Exposition

void
writeSummary(std::ostream &os)
{
    State &st = state();
    os << "fidelity probes: interval=" << probeInterval()
       << " total=" << counterValue("fidelity.probes") << "\n";

    std::map<std::string, LayerEntry> layers;
    {
        std::lock_guard<std::mutex> lock(st.layers_mu);
        layers = st.layers;
    }
    for (const auto &kv : layers) {
        const HistogramSnapshot rmse = kv.second.rmse_bits->snapshot();
        const HistogramSnapshot maxrel = kv.second.maxrel_bits->snapshot();
        os << "layer " << kv.first << ": probes=" << kv.second.probes->value()
           << " rmse_bits{p50=" << jnum(rmse.p50) << " min=" << jnum(rmse.min)
           << "} maxrel_bits{p50=" << jnum(maxrel.p50)
           << " min=" << jnum(maxrel.min) << "}\n";
    }

    const int64_t margin_min = st.rns_margin_min.load(std::memory_order_relaxed);
    os << "rns: dot_checks=" << counterValue("fidelity.rns.dot_checks")
       << " overflow_margin_min=";
    if (margin_min == INT64_MAX)
        os << "n/a";
    else
        os << margin_min;
    os << " overflow_risk=" << counterValue("fidelity.rns.overflow_risk")
       << " reduced_fallbacks="
       << counterValue("fidelity.rns.reduced_fallbacks")
       << " oracle_checks=" << counterValue("fidelity.rns.oracle_checks")
       << " oracle_mismatches="
       << counterValue("fidelity.rns.oracle_mismatches") << "\n";

    os << "bfp: groups=" << counterValue("fidelity.bfp.groups")
       << " clipped_mantissas="
       << counterValue("fidelity.bfp.clipped_mantissas") << "\n";

    const int64_t snr_min = st.snr_db_min.load(std::memory_order_relaxed);
    os << "photonic: snr_db_min=";
    if (snr_min == INT64_MAX)
        os << "n/a";
    else
        os << snr_min;
    os << " mvm_probes=" << counterValue("fidelity.photonic.mvm_probes")
       << " residue_errors="
       << counterValue("fidelity.photonic.residue_errors") << "\n";

    std::map<std::string, Series *> all_series;
    {
        std::lock_guard<std::mutex> lock(st.series_mu);
        all_series = st.series;
    }
    for (const auto &kv : all_series) {
        const DriftStatus s = kv.second->status();
        os << "drift " << kv.first << ": samples=" << s.samples
           << " baseline=" << jnum(s.baseline) << " ewma=" << jnum(s.ewma)
           << " cusum_up=" << jnum(s.cusum_up)
           << " cusum_down=" << jnum(s.cusum_down) << " firing="
           << (s.firing_up ? "up" : s.firing_down ? "down" : "none")
           << " alerts=" << kv.second->alerts() << "\n";
    }
}

void
writeReport(std::ostream &os)
{
    State &st = state();
    os << "{\n  \"probe_interval\": " << probeInterval()
       << ",\n  \"probes\": " << counterValue("fidelity.probes")
       << ",\n  \"layers\": {";

    std::map<std::string, LayerEntry> layers;
    {
        std::lock_guard<std::mutex> lock(st.layers_mu);
        layers = st.layers;
    }
    bool first = true;
    for (const auto &kv : layers) {
        os << (first ? "" : ",") << "\n    \"" << kv.first
           << "\": {\"probes\": " << kv.second.probes->value()
           << ", \"rmse_bits\": ";
        jsonHistogram(os, *kv.second.rmse_bits);
        os << ", \"maxrel_bits\": ";
        jsonHistogram(os, *kv.second.maxrel_bits);
        os << "}";
        first = false;
    }
    os << (layers.empty() ? "" : "\n  ") << "},\n";

    const int64_t margin_min = st.rns_margin_min.load(std::memory_order_relaxed);
    os << "  \"rns\": {\"dot_checks\": "
       << counterValue("fidelity.rns.dot_checks")
       << ", \"overflow_margin_min\": "
       << ((margin_min == INT64_MAX) ? 64 : margin_min)
       << ", \"overflow_risk\": "
       << counterValue("fidelity.rns.overflow_risk")
       << ", \"reduced_fallbacks\": "
       << counterValue("fidelity.rns.reduced_fallbacks")
       << ", \"oracle_checks\": "
       << counterValue("fidelity.rns.oracle_checks")
       << ", \"oracle_mismatches\": "
       << counterValue("fidelity.rns.oracle_mismatches") << "},\n";

    os << "  \"bfp\": {\"groups\": " << counterValue("fidelity.bfp.groups")
       << ", \"clipped_mantissas\": "
       << counterValue("fidelity.bfp.clipped_mantissas") << "},\n";

    const int64_t snr_min = st.snr_db_min.load(std::memory_order_relaxed);
    os << "  \"photonic\": {\"snr_db_min\": "
       << ((snr_min == INT64_MAX) ? 0 : snr_min)
       << ", \"mvm_probes\": " << counterValue("fidelity.photonic.mvm_probes")
       << ", \"residue_checks\": "
       << counterValue("fidelity.photonic.residue_checks")
       << ", \"residue_errors\": "
       << counterValue("fidelity.photonic.residue_errors") << "},\n";

    std::map<std::string, Series *> all_series;
    {
        std::lock_guard<std::mutex> lock(st.series_mu);
        all_series = st.series;
    }
    os << "  \"drift\": {\"alerts\": "
       << counterValue("fidelity.drift.alerts") << ", \"series\": {";
    first = true;
    for (const auto &kv : all_series) {
        const DriftStatus s = kv.second->status();
        os << (first ? "" : ",") << "\n    \"" << kv.first
           << "\": {\"samples\": " << s.samples
           << ", \"baseline\": " << jnum(s.baseline)
           << ", \"ewma\": " << jnum(s.ewma)
           << ", \"cusum_up\": " << jnum(s.cusum_up)
           << ", \"cusum_down\": " << jnum(s.cusum_down)
           << ", \"firing_up\": " << (s.firing_up ? "true" : "false")
           << ", \"firing_down\": " << (s.firing_down ? "true" : "false")
           << ", \"alerts\": " << kv.second->alerts() << "}";
        first = false;
    }
    os << (all_series.empty() ? "" : "\n  ") << "}}\n}\n";
}

bool
writeReportFile(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        MIRAGE_WARN("cannot open fidelity report path ", path);
        return false;
    }
    writeReport(out);
    out.flush();
    if (!out) {
        MIRAGE_WARN("short write on fidelity report path ", path);
        return false;
    }
    return true;
}

void
resetForTest()
{
    State &st = state();
    {
        std::lock_guard<std::mutex> lock(st.handles_mu);
        for (Counter *c : st.counters)
            c->reset();
        for (Gauge *g : st.gauges)
            g->reset();
        for (Histogram *h : st.histograms)
            h->reset();
    }
    {
        std::lock_guard<std::mutex> lock(st.layers_mu);
        st.layers.clear();
    }
    {
        std::lock_guard<std::mutex> lock(st.series_mu);
        for (auto &kv : st.series) {
            Series *s = kv.second;
            std::lock_guard<std::mutex> series_lock(s->impl_->mu);
            s->impl_->det = DriftDetector(s->cfg_.drift);
            s->impl_->next_index = 0;
            s->impl_->alerts.store(0, std::memory_order_relaxed);
        }
    }
    {
        std::lock_guard<std::mutex> lock(st.listeners_mu);
        st.listeners.clear();
    }
    st.rns_margin_min.store(INT64_MAX, std::memory_order_relaxed);
    st.snr_db_min.store(INT64_MAX, std::memory_order_relaxed);
}

} // namespace fidelity
} // namespace obs
} // namespace mirage
