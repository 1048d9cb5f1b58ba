/**
 * @file
 * Numerical-fidelity telemetry tests: the EWMA+CUSUM drift detector
 * against hand-computed series (rising-edge-only alerts, recovery and
 * re-alert, cold-start floor, time-regression clamp), config validation,
 * the deterministic probe sampler, shadow-probe error encoding and
 * per-layer attribution, RNS overflow-margin accounting (the promoted
 * modularDot headroom assert), BFP/photonic health counters, drift-series
 * fan-out to listeners, probe bit-identity (probes never feed numeric
 * state), the disabled-path cost bound, and the InferenceServer
 * integration (SloAlertKind::FidelityDrift through ServerConfig::on_alert
 * plus stats().fidelity_alerts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bfp/bfp_gemm.h"
#include "models/zoo.h"
#include "nn/gemm_backend.h"
#include "obs/fidelity.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "serve/repository.h"
#include "serve/server.h"
#include "serve/slo.h"
#include "test_support.h"

namespace mirage {
namespace {

namespace fid = obs::fidelity;

/** Clears fidelity state around each test and forces probes off on exit
 *  (resetForTest deliberately leaves the interval knob alone). */
struct FidelityGuard
{
    FidelityGuard()
    {
        fid::setProbeInterval(0);
        fid::resetForTest();
    }
    ~FidelityGuard()
    {
        fid::setProbeInterval(0);
        fid::resetForTest();
    }
};

uint64_t
counterValue(const char *name)
{
    const obs::Counter *c = obs::MetricsRegistry::global().findCounter(name);
    return c != nullptr ? c->value() : 0;
}

int64_t
gaugeValue(const char *name)
{
    const obs::Gauge *g = obs::MetricsRegistry::global().findGauge(name);
    return g != nullptr ? g->value() : 0;
}

// ---------------------------------------------------------------------------
// DriftConfig / DriftDetector

TEST(FidelityDriftConfig, ValidateRejectsOutOfRangeKnobs)
{
    fid::DriftConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
    cfg.alpha = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = fid::DriftConfig{};
    cfg.alpha = 1.5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = fid::DriftConfig{};
    cfg.slack = -0.1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = fid::DriftConfig{};
    cfg.threshold = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = fid::DriftConfig{};
    cfg.min_samples = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    // The detector constructor validates too.
    cfg = fid::DriftConfig{};
    cfg.threshold = -1.0;
    EXPECT_THROW(fid::DriftDetector{cfg}, std::invalid_argument);
}

/** alpha = 1 makes the EWMA transparent, so every statistic is exact
 *  integer arithmetic: baseline 10 from two warm-up samples, slack 0.5,
 *  threshold 2. */
fid::DriftConfig
handCfg()
{
    fid::DriftConfig cfg;
    cfg.alpha = 1.0;
    cfg.slack = 0.5;
    cfg.threshold = 2.0;
    cfg.min_samples = 2;
    return cfg;
}

TEST(FidelityDriftDetector, HandComputedUpwardExcursion)
{
    fid::DriftDetector det(handCfg());

    // Warm-up: running-mean baseline, never alerts.
    EXPECT_FALSE(det.observe(1.0, 10.0).has_value());
    EXPECT_FALSE(det.observe(2.0, 10.0).has_value());
    EXPECT_DOUBLE_EQ(det.status().baseline, 10.0);

    // +3 deviation minus 0.5 slack: S_up = 2.5 crosses threshold 2.
    const std::optional<fid::DriftAlert> alert = det.observe(3.0, 13.0);
    ASSERT_TRUE(alert.has_value());
    EXPECT_EQ(alert->direction, fid::DriftDirection::Up);
    EXPECT_DOUBLE_EQ(alert->at_s, 3.0);
    EXPECT_DOUBLE_EQ(alert->value, 13.0);
    EXPECT_DOUBLE_EQ(alert->baseline, 10.0);
    EXPECT_DOUBLE_EQ(alert->cusum, 2.5);
    EXPECT_DOUBLE_EQ(alert->threshold, 2.0);
    EXPECT_EQ(alert->samples, 3u);
}

TEST(FidelityDriftDetector, RisingEdgeOnlyThenRecoveryThenReAlert)
{
    fid::DriftDetector det(handCfg());
    det.observe(1.0, 10.0);
    det.observe(2.0, 10.0);

    ASSERT_TRUE(det.observe(3.0, 13.0).has_value());
    // Latched: staying in excursion is silent (S_up = 2.5 + 2.5 = 5).
    EXPECT_FALSE(det.observe(4.0, 13.0).has_value());
    EXPECT_DOUBLE_EQ(det.status().cusum_up, 5.0);
    EXPECT_TRUE(det.status().firing_up);

    // Recovery: at-baseline samples drain 0.5 (the slack) per step.
    // 5.0 -> 4.5 -> 4.0 -> 3.5 -> 3.0 -> 2.5 -> 2.0; at 2.0 the
    // statistic is no longer above the threshold, so the latch clears —
    // recovery itself never alerts.
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(det.observe(5.0 + i, 10.0).has_value());
    EXPECT_DOUBLE_EQ(det.status().cusum_up, 2.0);
    EXPECT_FALSE(det.status().firing_up);

    // Fresh excursion after recovery alerts again (S_up = 2 + 2.5).
    const std::optional<fid::DriftAlert> again = det.observe(11.0, 13.0);
    ASSERT_TRUE(again.has_value());
    EXPECT_DOUBLE_EQ(again->cusum, 4.5);
}

TEST(FidelityDriftDetector, DownwardDriftAlertsForSaggingSeries)
{
    fid::DriftDetector det(handCfg());
    det.observe(1.0, 30.0);
    det.observe(2.0, 30.0);

    // SNR sag: -3 dB deviation, S_down = 3 - 0.5 = 2.5 > 2.
    const std::optional<fid::DriftAlert> alert = det.observe(3.0, 27.0);
    ASSERT_TRUE(alert.has_value());
    EXPECT_EQ(alert->direction, fid::DriftDirection::Down);
    EXPECT_DOUBLE_EQ(alert->baseline, 30.0);
    EXPECT_DOUBLE_EQ(alert->cusum, 2.5);
    EXPECT_FALSE(det.status().firing_up);
    EXPECT_TRUE(det.status().firing_down);
}

TEST(FidelityDriftDetector, ColdStartFloorSuppressesEarlyAlerts)
{
    fid::DriftConfig cfg = handCfg();
    cfg.min_samples = 8;
    fid::DriftDetector det(cfg);
    // Even wildly swinging warm-up samples never alert: they ARE the
    // baseline estimate.
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(det.observe(i, (i % 2 == 0) ? 100.0 : -100.0)
                         .has_value());
    EXPECT_EQ(det.status().samples, 8u);
    EXPECT_DOUBLE_EQ(det.status().baseline, 0.0);
    EXPECT_DOUBLE_EQ(det.status().cusum_up, 0.0);
}

TEST(FidelityDriftDetector, TimeRegressionsClampToLatestSeen)
{
    fid::DriftConfig cfg;
    cfg.alpha = 1.0;
    cfg.slack = 0.0;
    cfg.threshold = 1.0;
    cfg.min_samples = 1;
    fid::DriftDetector det(cfg);
    EXPECT_FALSE(det.observe(5.0, 0.0).has_value());
    // A clock regression (t = 3 after t = 5) stamps the alert with the
    // clamped time, mirroring SloMonitor.
    const std::optional<fid::DriftAlert> alert = det.observe(3.0, 2.0);
    ASSERT_TRUE(alert.has_value());
    EXPECT_DOUBLE_EQ(alert->at_s, 5.0);
}

// ---------------------------------------------------------------------------
// Probe sampler + shadow probes

TEST(FidelityProbeSampler, DeterministicEveryNthAndDisabled)
{
    FidelityGuard guard;
    fid::setProbeInterval(3);
    fid::ProbeSampler sampler;
    std::vector<int> sampled;
    for (int i = 1; i <= 9; ++i)
        if (sampler.sample())
            sampled.push_back(i);
    EXPECT_EQ(sampled, (std::vector<int>{3, 6, 9}));
    EXPECT_EQ(sampler.calls(), 9u);

    fid::setProbeInterval(0);
    fid::ProbeSampler off;
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(off.sample());
}

TEST(FidelityProbes, ErrorBitsEncodingAndLayerAttribution)
{
    FidelityGuard guard;
    const std::vector<float> ref(16, 1.0f);

    {
        // Bit-exact probe: 64 "matching bits".
        fid::LayerScope scope("TestLayer.exact");
        fid::recordProbe("site", ref, ref);
    }
    const obs::Histogram *exact = obs::MetricsRegistry::global().findHistogram(
        "fidelity.probe.rmse_bits.TestLayer.exact");
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(exact->snapshot().count, 1u);
    EXPECT_DOUBLE_EQ(exact->snapshot().mean, 64.0);

    {
        // Uniform relative error of 2^-4 against a unit-RMS reference:
        // both RMSE and max-rel land on 4 matching bits.
        std::vector<float> noisy(16, 1.0f + 0.0625f);
        fid::LayerScope scope("TestLayer.bits4");
        fid::recordProbe("site", noisy, ref);
    }
    const obs::Histogram *bits4 = obs::MetricsRegistry::global().findHistogram(
        "fidelity.probe.rmse_bits.TestLayer.bits4");
    ASSERT_NE(bits4, nullptr);
    EXPECT_DOUBLE_EQ(bits4->snapshot().mean, 4.0);
    const obs::Histogram *maxrel = obs::MetricsRegistry::global().findHistogram(
        "fidelity.probe.maxrel_bits.TestLayer.bits4");
    ASSERT_NE(maxrel, nullptr);
    EXPECT_DOUBLE_EQ(maxrel->snapshot().mean, 4.0);

    // Without a LayerScope the call-site label attributes the probe.
    fid::recordProbe("gemm.fp32", ref, ref);
    EXPECT_EQ(counterValue("fidelity.probe.calls.gemm.fp32"), 1u);
    EXPECT_EQ(counterValue("fidelity.probes"), 3u);
    EXPECT_STREQ(fid::currentLayer(), "");
}

TEST(FidelityProbes, LayerScopeNestsAndRestores)
{
    EXPECT_STREQ(fid::currentLayer(), "");
    {
        fid::LayerScope outer("Outer");
        EXPECT_STREQ(fid::currentLayer(), "Outer");
        {
            fid::LayerScope inner("Inner");
            EXPECT_STREQ(fid::currentLayer(), "Inner");
        }
        EXPECT_STREQ(fid::currentLayer(), "Outer");
    }
    EXPECT_STREQ(fid::currentLayer(), "");
}

TEST(FidelityProbes, ShadowProbesNeverPerturbBackendResults)
{
    // The determinism contract: enabling probes must not change a single
    // bit of any backend's output — probes only *read* results and
    // re-execute the reference path on scratch storage.
    FidelityGuard guard;
    Rng rng(7);
    const int m = 9, k = 33, n = 7;
    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(k) * n);
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));

    numerics::FormatGemmConfig cfg;
    cfg.moduli = test::paperModuli();

    fid::setProbeInterval(0);
    nn::FormatBackend plain(numerics::DataFormat::MirageBfpRns, cfg, 42);
    const std::vector<float> expect = plain.gemm(a, b, m, k, n, false, false);

    fid::setProbeInterval(1); // shadow-execute every call
    nn::FormatBackend probed(numerics::DataFormat::MirageBfpRns, cfg, 42);
    const std::vector<float> got = probed.gemm(a, b, m, k, n, false, false);

    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(expect[i], got[i]) << "@" << i;
    // And the probe actually ran and attributed to the backend site.
    EXPECT_GE(counterValue("fidelity.probes"), 1u);
    EXPECT_GE(counterValue("fidelity.probe.calls.gemm.Mirage"), 1u);
}

TEST(FidelityProbes, RnsOracleReplaysProbedGemmsBitExactly)
{
    // Each probed Mirage GEMM is replayed through the literal RNS round
    // trip from a copy of the backend's Rng. With stochastic rounding the
    // replay matches only if it draws what the integer-dot path drew, and
    // the second call (whose rounding starts from the backend's next draw)
    // matches the probes-off run only if the oracle consumed nothing.
    FidelityGuard guard;
    Rng rng(11);
    const int m = 9, k = 33, n = 7;
    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(k) * n);
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));

    numerics::FormatGemmConfig cfg;
    cfg.mirage_bfp.rounding = bfp::Rounding::Stochastic;
    cfg.moduli = test::paperModuli();
    const auto twoCalls = [&](uint64_t probe_every) {
        fid::setProbeInterval(probe_every);
        nn::FormatBackend backend(numerics::DataFormat::MirageBfpRns, cfg, 42);
        std::vector<float> out = backend.gemm(a, b, m, k, n, false, false);
        const std::vector<float> next =
            backend.gemm(a, b, m, k, n, false, false);
        out.insert(out.end(), next.begin(), next.end());
        return out;
    };

    const std::vector<float> expect = twoCalls(0);
    // The integer-dot path forms no residues, so it records no RNS checks.
    EXPECT_EQ(counterValue("fidelity.rns.dot_checks"), 0u);
    EXPECT_EQ(counterValue("fidelity.rns.oracle_checks"), 0u);

    const std::vector<float> got = twoCalls(1); // probe every call
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(expect[i], got[i]) << "@" << i;
    EXPECT_EQ(counterValue("fidelity.rns.oracle_checks"), 2u);
    EXPECT_EQ(counterValue("fidelity.rns.oracle_mismatches"), 0u);
    EXPECT_GT(counterValue("fidelity.rns.dot_checks"), 0u);

    // The comparison is bitwise, and a differing replay counts.
    std::vector<float> off = got;
    off[0] = std::nextafter(off[0], 1e30f);
    EXPECT_FALSE(fid::recordRnsOracle(got, off));
    EXPECT_EQ(counterValue("fidelity.rns.oracle_mismatches"), 1u);
}

// ---------------------------------------------------------------------------
// Always-on health counters

TEST(FidelityRns, MarginAccountingMatchesClosedForm)
{
    FidelityGuard guard;
    // The modularDot fast-path corner (largest small-path modulus, longest
    // admissible dot): worst = (2^21 - 2)^2 * 2^14 uses 56 bits -> 8 bits
    // of 64-bit headroom.
    const uint64_t m_small = (uint64_t{1} << 21) - 1;
    EXPECT_EQ(fid::recordRnsMargin(m_small, int64_t{1} << 14), 8);
    EXPECT_EQ(counterValue("fidelity.rns.dot_checks"), 1u);
    EXPECT_EQ(counterValue("fidelity.rns.overflow_risk"), 0u);
    EXPECT_EQ(gaugeValue("fidelity.rns.overflow_margin_min"), 8);

    // A 31-bit modulus at depth 2^10 would wrap: margin goes negative and
    // the risk counter fires, but the min gauge keeps the worst value.
    const uint64_t m_big = (uint64_t{1} << 31) - 1;
    EXPECT_EQ(fid::recordRnsMargin(m_big, int64_t{1} << 10), -8);
    EXPECT_EQ(counterValue("fidelity.rns.overflow_risk"), 1u);
    EXPECT_EQ(gaugeValue("fidelity.rns.overflow_margin_min"), -8);

    // A roomier call never raises the running minimum.
    EXPECT_EQ(fid::recordRnsMargin(33, 8), 64 - 14);
    EXPECT_EQ(gaugeValue("fidelity.rns.overflow_margin_min"), -8);

    fid::noteRnsReducedFallback();
    EXPECT_EQ(counterValue("fidelity.rns.reduced_fallbacks"), 1u);
}

TEST(FidelityHealth, BfpAndPhotonicCountersAccumulate)
{
    FidelityGuard guard;
    fid::noteBfpGroup(-3, 0);
    fid::noteBfpGroup(5, 2);
    EXPECT_EQ(counterValue("fidelity.bfp.groups"), 2u);
    EXPECT_EQ(counterValue("fidelity.bfp.clipped_mantissas"), 2u);
    const obs::Histogram *exps = obs::MetricsRegistry::global().findHistogram(
        "fidelity.bfp.exponent_bias128");
    ASSERT_NE(exps, nullptr);
    EXPECT_EQ(exps->snapshot().count, 2u);
    // Histogram bounds are bucket-quantized; the biased exponents 125 and
    // 133 must land within their buckets' ranges.
    EXPECT_LE(exps->snapshot().min, 125.0);
    EXPECT_GE(exps->snapshot().min, 100.0);
    EXPECT_GE(exps->snapshot().max, 133.0);
    EXPECT_LE(exps->snapshot().max, 160.0);

    fid::noteSnrDb(31.7);
    fid::noteSnrDb(24.2);
    EXPECT_EQ(gaugeValue("fidelity.photonic.snr_db_min"), 24);

    fid::notePhotonicProbe(5, 0);
    fid::notePhotonicProbe(5, 2);
    EXPECT_EQ(counterValue("fidelity.photonic.mvm_probes"), 2u);
    EXPECT_EQ(counterValue("fidelity.photonic.residue_checks"), 10u);
    EXPECT_EQ(counterValue("fidelity.photonic.residue_errors"), 2u);
}

/**
 * Shared exponent and clip count of one Nearest- or Truncate-rounded
 * group, worked out per element with frexp/ldexp: the values a per-group
 * noteBfpGroup call records for it.
 */
std::pair<int, int>
groupNote(const std::vector<float> &group, int bm, bfp::Rounding rounding)
{
    int shared = 0;
    bool nonzero = false;
    for (float v : group) {
        if (v == 0.0f)
            continue;
        int e = 0;
        std::frexp(v, &e);
        shared = nonzero ? std::max(shared, e) : e;
        nonzero = true;
    }
    if (!nonzero)
        return {0, 0};
    int clipped = 0;
    for (float v : group) {
        const double s = std::ldexp(static_cast<double>(v), bm - shared);
        const double q = rounding == bfp::Rounding::Truncate ? std::floor(s)
                         : s >= 0.0 ? std::floor(s + 0.5)
                                    : std::ceil(s - 0.5);
        clipped += (q > (1 << bm) - 1 || q < -(1 << bm)) ? 1 : 0;
    }
    return {shared, clipped};
}

struct BfpTelemetry
{
    uint64_t groups = 0;
    uint64_t clipped = 0;
    std::vector<uint64_t> exponent_buckets;
    double exponent_sum = 0.0;
};

BfpTelemetry
bfpTelemetry()
{
    BfpTelemetry t;
    t.groups = counterValue("fidelity.bfp.groups");
    t.clipped = counterValue("fidelity.bfp.clipped_mantissas");
    const obs::Histogram *h = obs::MetricsRegistry::global().findHistogram(
        "fidelity.bfp.exponent_bias128");
    t.exponent_buckets.assign(obs::Histogram::kBuckets, 0);
    if (h != nullptr) {
        h->aggregate(t.exponent_buckets.data());
        t.exponent_sum = h->snapshot().sum;
    }
    return t;
}

TEST(FidelityHealth, BfpGemmTalliesEqualPerGroupNotes)
{
    // A GEMM's batched fidelity.bfp.* flushes against one noteBfpGroup per
    // group of A's rows and B's columns, and so do the packed encoders',
    // under both deterministic roundings. Groups mix shared exponents:
    // all-zero, subnormal (exponent below -128, clamped into the lowest
    // bucket), clipping (0.999 rounds to 16 at bm = 4 under Nearest),
    // near FLT_MAX (exponent 128) and ordinary, with a ragged last chunk
    // and a column count off the encoders' 8-lane step.
    const int m = 6, k = 40, n = 11;
    for (const bfp::Rounding rounding :
         {bfp::Rounding::Nearest, bfp::Rounding::Truncate}) {
        FidelityGuard guard;
        const bfp::BfpConfig cfg{4, 16, rounding};
        Rng rng(31);
        const auto value = [&](int kind) -> float {
            switch (kind % 6) {
              case 0: return 0.0f;
              case 1: return static_cast<float>(rng.gaussian(0.0, 1e-40));
              case 2: return rng.uniformReal() < 0.3 ? 0.999f : -0.4f;
              case 3: return static_cast<float>(rng.gaussian(0.0, 1e-44));
              case 4: return static_cast<float>(rng.gaussian(0.0, 1e38));
              default: return static_cast<float>(rng.gaussian());
            }
        };
        std::vector<float> a(static_cast<size_t>(m) * k);
        std::vector<float> b(static_cast<size_t>(k) * n);
        for (int r = 0; r < m; ++r)
            for (int kk = 0; kk < k; ++kk)
                a[static_cast<size_t>(r) * k + kk] = value(r + kk / 16);
        for (int kk = 0; kk < k; ++kk)
            for (int j = 0; j < n; ++j)
                b[static_cast<size_t>(kk) * n + j] = value(j + kk / 16);

        std::vector<float> c(static_cast<size_t>(m) * n);
        bfp::bfpGemm(a, b, c, m, k, n, cfg, nullptr);
        const BfpTelemetry batched = bfpTelemetry();
        fid::resetForTest();
        {
            Workspace ws;
            Workspace::Scope scope(ws);
            bfp::encodeRowsPacked(a, m, k, cfg, ws);
            bfp::encodeColsPacked(b, k, n, cfg, ws);
        }
        const BfpTelemetry packed = bfpTelemetry();

        fid::resetForTest();
        for (int r = 0; r < m; ++r)
            for (int start = 0; start < k; start += 16) {
                const std::vector<float> group(
                    a.begin() + r * k + start,
                    a.begin() + r * k + std::min(k, start + 16));
                const auto [e, clipped] = groupNote(group, cfg.bm, rounding);
                fid::noteBfpGroup(e, clipped);
            }
        for (int j = 0; j < n; ++j)
            for (int start = 0; start < k; start += 16) {
                std::vector<float> group;
                for (int kk = start; kk < std::min(k, start + 16); ++kk)
                    group.push_back(b[static_cast<size_t>(kk) * n + j]);
                const auto [e, clipped] = groupNote(group, cfg.bm, rounding);
                fid::noteBfpGroup(e, clipped);
            }
        const BfpTelemetry per_group = bfpTelemetry();

        const std::string where = bfp::toString(rounding);
        EXPECT_EQ(batched.groups, static_cast<uint64_t>((m + n) * 3)) << where;
        if (rounding == bfp::Rounding::Nearest) {
            EXPECT_GT(batched.clipped, 0u) << where;
        }
        for (const BfpTelemetry *t : {&batched, &packed}) {
            EXPECT_EQ(t->groups, per_group.groups) << where;
            EXPECT_EQ(t->clipped, per_group.clipped) << where;
            EXPECT_EQ(t->exponent_buckets, per_group.exponent_buckets)
                << where;
            EXPECT_EQ(t->exponent_sum, per_group.exponent_sum) << where;
        }
    }
}

// ---------------------------------------------------------------------------
// Series + fan-out

TEST(FidelitySeries, DirectionFilterCountersAndListeners)
{
    FidelityGuard guard;
    fid::SeriesConfig cfg;
    cfg.drift = handCfg();
    cfg.alert_up = false; // SNR-style: only degradation pages
    fid::Series &snr = fid::series("test.fid.series.snr", cfg);

    std::vector<fid::DriftAlert> seen;
    const uint64_t token = fid::addAlertListener(
        [&seen](const fid::DriftAlert &a) { seen.push_back(a); });

    snr.observe(30.0);
    snr.observe(30.0);
    // Upward excursion: detector fires internally, but the direction
    // filter keeps it off the bus.
    snr.observe(33.0);
    EXPECT_EQ(snr.alerts(), 0u);
    EXPECT_TRUE(seen.empty());
    EXPECT_EQ(counterValue("fidelity.drift.alerts"), 0u);

    // Drain the up statistic back under threshold, then sag: the down
    // alert passes the filter, bumps counters, reaches listeners.
    for (int i = 0; i < 6; ++i)
        snr.observe(30.0);
    snr.observe(27.0);
    EXPECT_EQ(snr.alerts(), 1u);
    EXPECT_EQ(counterValue("fidelity.drift.alerts"), 1u);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].series, "test.fid.series.snr");
    EXPECT_EQ(seen[0].direction, fid::DriftDirection::Down);
    EXPECT_DOUBLE_EQ(seen[0].baseline, 30.0);

    fid::removeAlertListener(token);
    // Re-registration returns the same handle; the config is sticky.
    EXPECT_EQ(&fid::series("test.fid.series.snr"), &snr);
}

TEST(FidelitySeries, ResetForTestRearmsDetectorsAndCounters)
{
    FidelityGuard guard;
    fid::SeriesConfig cfg;
    cfg.drift = handCfg();
    fid::Series &s = fid::series("test.fid.series.reset", cfg);
    s.observe(10.0);
    s.observe(10.0);
    s.observe(13.0);
    EXPECT_EQ(s.alerts(), 1u);

    fid::resetForTest();
    // Same (immortal) handle, fresh detector state and counters.
    fid::Series &again = fid::series("test.fid.series.reset", cfg);
    EXPECT_EQ(&again, &s);
    EXPECT_EQ(s.alerts(), 0u);
    EXPECT_EQ(s.status().samples, 0u);
    EXPECT_EQ(counterValue("fidelity.drift.alerts"), 0u);
    // Warm-up applies afresh after the reset.
    s.observe(10.0);
    s.observe(10.0);
    EXPECT_FALSE(s.status().firing_up);
    s.observe(13.0);
    EXPECT_EQ(s.alerts(), 1u);
}

// ---------------------------------------------------------------------------
// Server integration

TEST(FidelityServer, DriftAlertForwardsThroughServerAlertPath)
{
    FidelityGuard guard;
    serve::ModelRepository repo;
    repo.publishShape("resnet", models::resNet18());
    runtime::RuntimeEngine engine;

    serve::ServerConfig cfg;
    std::atomic<int> fidelity_alerts{0};
    cfg.on_alert = [&](serve::SloClass cls, const serve::SloAlert &alert) {
        if (alert.kind != serve::SloAlertKind::FidelityDrift)
            return;
        fidelity_alerts.fetch_add(1);
        EXPECT_EQ(cls, serve::SloClass::Interactive);
        // fast_burn carries the CUSUM statistic, slow_burn the threshold.
        EXPECT_DOUBLE_EQ(alert.fast_burn, 2.5);
        EXPECT_DOUBLE_EQ(alert.slow_burn, 2.0);
        EXPECT_EQ(alert.fast_events, 3u);
    };
    serve::InferenceServer server(repo, engine, cfg);

    fid::SeriesConfig scfg;
    scfg.drift = handCfg();
    fid::Series &err = fid::series("test.fid.server.err", scfg);
    err.observe(10.0);
    err.observe(10.0);
    err.observe(13.0); // listener fan-out is synchronous on this thread

    EXPECT_EQ(fidelity_alerts.load(), 1);
    EXPECT_EQ(server.stats().fidelity_alerts, 1u);
    EXPECT_GE(counterValue("server.fidelity.alerts"), 1u);
}

// ---------------------------------------------------------------------------
// Disabled-path cost

#if defined(NDEBUG) && !defined(MIRAGE_TEST_TSAN)
TEST(FidelityOverhead, DisabledProbeCheckCostsAFewNanoseconds)
{
    // The "<= 2 ns when off" contract: a disabled sample() is one relaxed
    // load plus a branch. As in test_obs, the asserted bound is an order
    // of magnitude above the expected cost so slow CI cannot flake it,
    // while still catching accidental work ahead of the gate.
    FidelityGuard guard;
    fid::setProbeInterval(0);
    fid::ProbeSampler sampler;
    constexpr uint64_t kIters = 2000000;
    using Clock = std::chrono::steady_clock;

    uint64_t hits = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kIters; ++i)
        hits += sampler.sample() ? 1 : 0;
    const Clock::time_point t1 = Clock::now();
    const double ns_per_call =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(kIters);
    EXPECT_EQ(hits, 0u);
    EXPECT_LT(ns_per_call, 30.0) << "disabled ProbeSampler::sample";
}
#endif

} // namespace
} // namespace mirage
