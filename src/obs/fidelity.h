#ifndef MIRAGE_OBS_FIDELITY_H
#define MIRAGE_OBS_FIDELITY_H

/**
 * @file
 * Numerical-fidelity telemetry: shadow-execution error probes, RNS/BFP
 * health accounting, and EWMA+CUSUM drift detection over SNR/error series.
 *
 * Mirage's central claim is digital-equivalent training precision on an
 * analog substrate; this layer is the runtime's visibility into whether
 * that holds. Three tiers, by cost:
 *
 *  - **Shadow probes** (off by default, `MIRAGE_FIDELITY=N` probes every
 *    Nth GEMM/MVM per call site): re-execute a sampled call against the
 *    FP32 reference path and record per-layer error histograms
 *    (`fidelity.probe.rmse_bits.<layer>` / `.maxrel_bits.<layer>`,
 *    encoded as round(-log2 relative error) "bits of accuracy"). The
 *    disabled check is one relaxed load plus a branch (~1-2 ns, pinned by
 *    bench/obs_overhead and tests/test_obs_fidelity.cpp). Probes only
 *    *read* outputs — they never feed numeric state, never consume the
 *    caller's Rng — so every determinism suite is bit-identical with
 *    probes enabled. Probed Mirage GEMMs are also replayed through the
 *    RNS round trip and compared bit for bit (recordRnsOracle).
 *
 *  - **Always-on health counters** (gated only by obs::enabled(), same
 *    contract as every other metric): RNS overflow-margin accounting
 *    wherever residues raw-accumulate in 64 bits (`fidelity.rns.*`,
 *    promoting the debug-only modularDot overflow DASSERT into a counted
 *    observation), BFP exponent-distribution histograms and mantissa-clip
 *    counters (`fidelity.bfp.*`), and per-unit photonic SNR estimates
 *    (`fidelity.photonic.*`).
 *
 *  - **Drift detection**: named series (per-layer probe error, per-modulus
 *    photonic SNR, or anything a bench feeds in) run through an
 *    EWMA-smoothed CUSUM change detector. Alerts are rising-edge only,
 *    bump `fidelity.drift.alerts`, trigger a `fidelity_drift` flight dump
 *    (obs/flight_recorder.h) and fan out to registered listeners —
 *    InferenceServer forwards them through ServerConfig::on_alert as
 *    SloAlertKind::FidelityDrift.
 *
 * Everything surfaces through /metrics (Prometheus), the /fidelityz text
 * summary, and the JSON report (writeReportFile, emitted by train_soak /
 * serve_soak via --fidelity-report and validated by bench/check_fidelity.py).
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

namespace mirage {
namespace obs {
namespace fidelity {

namespace detail {
/// 0 = probes off; N > 0 = shadow-execute every Nth sampled call per site.
/// -1 sentinel = read MIRAGE_FIDELITY on first query.
extern std::atomic<int64_t> g_probe_interval;
int64_t initProbeInterval();
} // namespace detail

/** Current probe interval: 0 = off, N = every Nth call per site. First
 *  call reads MIRAGE_FIDELITY ("0"/"off"/"false"/unset disable; a positive
 *  integer N probes every Nth call; garbage warns loudly and disables). */
inline uint64_t
probeInterval()
{
    const int64_t v = detail::g_probe_interval.load(std::memory_order_relaxed);
    if (v >= 0)
        return static_cast<uint64_t>(v);
    return static_cast<uint64_t>(detail::initProbeInterval());
}

/** Overrides the probe interval at runtime (0 disables). */
void setProbeInterval(uint64_t every_n);

/**
 * Deterministic per-site probe sampler. Each call site (a backend
 * instance; backends have a single-caller contract) owns one, so sampling
 * counts that site's call sequence — the same calls are probed at every
 * thread count and on every run. Disabled cost: one relaxed load and a
 * predicted branch.
 */
class ProbeSampler
{
  public:
    bool
    sample()
    {
        const uint64_t every = probeInterval();
        if (every == 0)
            return false;
        return (++calls_ % every) == 0;
    }

    /** Calls seen by this site (for tests). */
    uint64_t calls() const { return calls_; }

  private:
    uint64_t calls_ = 0;
};

/**
 * RAII thread-local layer label: layers tag their forward/backward GEMMs
 * so shadow probes attribute error histograms per layer. Pointer-only
 * save/set/restore (the label must outlive the scope — layers pass their
 * stable name member). Nests; the innermost label wins.
 */
class LayerScope
{
  public:
    explicit LayerScope(const char *layer);
    ~LayerScope();

    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

  private:
    const char *prev_;
};

/** The innermost LayerScope label, or "" when unset. */
const char *currentLayer();

/**
 * Records one shadow-execution probe: compares `actual` against the FP32
 * `reference`, records the per-layer error histograms (layer label from
 * LayerScope, else `site`), bumps `fidelity.probes`, and feeds the
 * per-layer error drift series (`fidelity.err.<layer>`, alerting on
 * accuracy *loss*). Errors are relative to the reference RMS:
 *   rmse_rel = rms(actual - reference) / rms(reference)
 *   maxrel   = max|actual - reference| / rms(reference)
 * and are recorded as round(-log2(err)) clamped to [0, 64] — "matching
 * bits"; 64 means bit-exact.
 */
void recordProbe(const char *site, std::span<const float> actual,
                 std::span<const float> reference);

/**
 * Always-on RNS overflow-margin accounting for a raw 64-bit accumulation
 * of `accum_len` products of residues < `modulus` (< 2^32). Headroom in
 * bits between the worst case `accum_len * (modulus-1)^2` and 2^64:
 * margin 0 still fits; negative would overflow. Updates
 * `fidelity.rns.dot_checks`, the running-minimum gauge
 * `fidelity.rns.overflow_margin_min`, the `fidelity.rns.range_used_bits`
 * histogram, and counts would-overflow calls in
 * `fidelity.rns.overflow_risk`. Returns the margin (for tests).
 */
int recordRnsMargin(uint64_t modulus, int64_t accum_len);

/** Always-on counted fallback note: a GEMM whose accumulation could not
 *  use the raw 64-bit fast path and took the fully-reduced route instead
 *  (`fidelity.rns.reduced_fallbacks`). */
void noteRnsReducedFallback();

/**
 * Sampled RNS oracle, compare-only: `fast` is an emulated Mirage GEMM's
 * output from bfp::bfpGemm's integer-dot path and `reference` the same call
 * replayed through the residue/CRT round trip (bfp::bfpGemmRnsReference).
 * Bumps `fidelity.rns.oracle_checks` and, when any element differs
 * bitwise, `fidelity.rns.oracle_mismatches` — which Eq. (13) keeps at 0.
 * Returns true on a bit-exact match.
 */
bool recordRnsOracle(std::span<const float> fast,
                     std::span<const float> reference);

/** Always-on BFP group-encode note: bumps `fidelity.bfp.groups`, records
 *  the shared exponent into the `fidelity.bfp.exponent_bias128` histogram
 *  (offset by +128 so negative exponents stay recordable), and counts
 *  clamped mantissas in `fidelity.bfp.clipped_mantissas`. */
void noteBfpGroup(int shared_exponent, int clipped_mantissas);

/**
 * Batched noteBfpGroup for the BFP encoders: note() each group locally,
 * then flush() once per encode block. The fidelity.bfp.* totals equal one
 * noteBfpGroup call per noted group. Shared exponents are those of finite
 * floats, in [-148, 128].
 */
class BfpGroupTally
{
  public:
    void
    note(int shared_exponent)
    {
        const int biased = std::clamp(shared_exponent + 128, 0, kMaxBiased);
        ++exponents_[biased];
        lo_ = std::min(lo_, biased);
        hi_ = std::max(hi_, biased);
    }

    void addClipped(uint64_t clipped_mantissas) { clipped_ += clipped_mantissas; }

    /** Adds the tally to the fidelity.bfp.* metrics and clears it. */
    void flush();

  private:
    static constexpr int kMaxBiased = 256;
    int lo_ = kMaxBiased + 1, hi_ = -1; ///< noted biased-exponent range
    uint64_t clipped_ = 0;
    uint32_t exponents_[kMaxBiased + 1] = {}; ///< groups per biased exponent
};

/** Always-on per-unit photonic SNR note: records `fidelity.photonic.snr_db`
 *  and maintains the running-minimum gauge `fidelity.photonic.snr_db_min`
 *  (both in integer dB, clamped at 0). */
void noteSnrDb(double snr_db);

/** One sampled MVM shadow probe against the noiseless reference: bumps
 *  `fidelity.photonic.mvm_probes`, `fidelity.photonic.residue_checks`
 *  (+= residues_checked) and `fidelity.photonic.residue_errors`
 *  (+= mismatches). */
void notePhotonicProbe(uint64_t residues_checked, uint64_t mismatches);

// ---------------------------------------------------------------------------
// EWMA + CUSUM drift detection

/** Drift-detector knobs. Defaults suit dB-scale SNR series. */
struct DriftConfig
{
    double alpha = 0.25;      ///< EWMA smoothing of the tracked value.
    double slack = 0.5;       ///< CUSUM slack k: deviations below it decay.
    double threshold = 4.0;   ///< CUSUM decision threshold h.
    uint64_t min_samples = 8; ///< Cold-start floor: the baseline freezes at
                              ///< the mean of these; no alert before it.

    /** Throws std::invalid_argument on out-of-range knobs. */
    void validate() const;
};

enum class DriftDirection
{
    Up,   ///< Series drifted above baseline (e.g. error growing).
    Down, ///< Series drifted below baseline (e.g. SNR sagging).
};

const char *toString(DriftDirection direction);

/** One rising-edge drift alert. */
struct DriftAlert
{
    std::string series; ///< Series name ("" from a bare DriftDetector).
    DriftDirection direction = DriftDirection::Down;
    double at_s = 0.0;     ///< Detector time of the crossing (clamped).
    double value = 0.0;     ///< EWMA value at the crossing.
    double baseline = 0.0;  ///< Frozen cold-start baseline.
    double cusum = 0.0;     ///< The crossing statistic.
    double threshold = 0.0; ///< Configured decision threshold h.
    uint64_t samples = 0;   ///< Observations seen so far.
};

/** Point-in-time detector state. */
struct DriftStatus
{
    uint64_t samples = 0;
    double baseline = 0.0;
    double ewma = 0.0;
    double cusum_up = 0.0;
    double cusum_down = 0.0;
    bool firing_up = false;
    bool firing_down = false;
};

/**
 * EWMA + CUSUM change detector (Page's test on the smoothed series).
 *
 * Warm-up: the first `min_samples` observations establish the baseline
 * (their running mean) and can never alert. After warm-up the baseline is
 * frozen, each observation updates the EWMA, and the one-sided CUSUM
 * statistics accumulate smoothed deviations past the slack:
 *   S_up   = max(0, S_up   + (ewma - baseline) - slack)
 *   S_down = max(0, S_down - (ewma - baseline) - slack)
 * A statistic crossing `threshold` fires a rising-edge alert in that
 * direction; the firing latch clears when the statistic decays back to or
 * below the threshold (deviations within the slack drain it), after which
 * a fresh excursion alerts again.
 *
 * Time is explicit (mirrors serve::SloMonitor): callers pass
 * seconds-since-start (or any monotone sample index); regressions clamp
 * to the latest time seen. Time only stamps alerts — the statistics are
 * per-observation — so feeding logical indices keeps detection fully
 * deterministic. Not internally synchronized; Series adds the lock.
 */
class DriftDetector
{
  public:
    explicit DriftDetector(DriftConfig cfg = {});

    /** Records one observation; returns the alert when this observation
     *  is a rising-edge threshold crossing. */
    std::optional<DriftAlert> observe(double t_s, double value);

    DriftStatus status() const;
    const DriftConfig &config() const { return cfg_; }

  private:
    DriftConfig cfg_;
    uint64_t samples_ = 0;
    double last_t_ = 0.0;
    double baseline_ = 0.0; ///< Running mean during warm-up, then frozen.
    double ewma_ = 0.0;
    double cusum_up_ = 0.0;
    double cusum_down_ = 0.0;
    bool firing_up_ = false;
    bool firing_down_ = false;
};

/** Per-series configuration: detector knobs plus which directions alert. */
struct SeriesConfig
{
    DriftConfig drift;
    bool alert_up = true;   ///< Fan out upward-drift alerts.
    bool alert_down = true; ///< Fan out downward-drift alerts.
};

/**
 * One named, internally synchronized drift series. Handles are stable for
 * the process lifetime (registry pattern of MetricsRegistry). An alert in
 * an enabled direction bumps `fidelity.drift.alerts`, triggers a
 * `fidelity_drift` flight-recorder dump, and fans out to the registered
 * listeners — all outside the series lock.
 */
class Series
{
  public:
    Series(std::string name, SeriesConfig cfg);

    /** Observes at logical time = observation index (deterministic). */
    void observe(double value);

    /** Observes at explicit time `t_s` (soaks feeding wall/schedule time). */
    void observeAt(double t_s, double value);

    DriftStatus status() const;
    const std::string &name() const { return name_; }
    const SeriesConfig &config() const { return cfg_; }

    /** Lifetime alerts fanned out by this series. */
    uint64_t alerts() const;

    Series(const Series &) = delete;
    Series &operator=(const Series &) = delete;

  private:
    friend void resetForTest();

    void dispatch(std::optional<DriftAlert> alert);

    struct Impl;
    Impl *impl_;
    std::string name_;
    SeriesConfig cfg_;
};

/** Registers (first call) or looks up the named drift series. The config
 *  only applies on first registration; later calls return the existing
 *  handle unchanged. */
Series &series(const std::string &name, const SeriesConfig &cfg = {});

/** Registers a process-wide drift-alert listener; returns a token for
 *  removeAlertListener. Listeners run on the observing thread, outside
 *  fidelity locks — keep them fast. */
uint64_t addAlertListener(std::function<void(const DriftAlert &)> fn);
void removeAlertListener(uint64_t token);

// ---------------------------------------------------------------------------
// Exposition

/** Human-readable summary of per-layer probe error, RNS/BFP health, and
 *  drift-detector state — the /fidelityz endpoint body. */
void writeSummary(std::ostream &os);

/** The per-layer fidelity report as JSON (see bench/check_fidelity.py):
 *  {"probes": {...}, "layers": {...}, "rns": {...}, "bfp": {...},
 *   "photonic": {...}, "drift": {...}}. */
void writeReport(std::ostream &os);

/** writeReport to `path`; returns false (and warns) on I/O failure. */
bool writeReportFile(const std::string &path);

/** Clears fidelity-local state (series registry, listeners, per-layer
 *  table, running minima) AND the fidelity.* metrics. Tests only. */
void resetForTest();

} // namespace fidelity
} // namespace obs
} // namespace mirage

#endif // MIRAGE_OBS_FIDELITY_H
