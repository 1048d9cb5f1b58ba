#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <tuple>

#include "arch/config.h"
#include "arch/perf_model.h"
#include "obs/context.h"
#include "obs/fidelity.h"

namespace pb {

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t id = next.fetch_add(1);
    return id;
}

LayerMap::LayerMap(std::vector<Layer> layers) : layers_(std::move(layers)) {}

int
LayerMap::attribute(const char *label, int m, int k, int n) const
{
    const bool conv = std::strncmp(label, "Conv2d.", 7) == 0;
    const bool dense = std::strncmp(label, "Dense.", 6) == 0;
    if (!conv && !dense)
        return -1;
    const bool bwd = std::strstr(label, ".bwd") != nullptr;
    for (size_t i = 0; i < layers_.size(); ++i) {
        const Layer &l = layers_[i];
        if (l.conv != conv)
            continue;
        bool hit;
        if (dense)
            hit = bwd ? (l.out == k && l.in == n) || (l.out == m && l.in == n)
                      : (l.in == k && l.out == n);
        else
            hit = bwd ? (l.out == m && l.in == n) || (l.in == m && l.out == k)
                      : (l.out == m && l.in == k);
        if (hit)
            return static_cast<int>(2 * i + (bwd ? 1 : 0));
    }
    return -1;
}

std::string
LayerMap::keyName(int key) const
{
    if (key < 0)
        return "unattributed";
    return layers_[static_cast<size_t>(key / 2)].name +
           (key % 2 == 0 ? ".fwd" : ".bwd");
}

void
Tracer::record(const Span &s)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

bool
Tracer::writeChrome(const std::string &path, const std::vector<Span> &spans,
                    const LayerMap *map) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << std::fixed << std::setprecision(3);
    bool first = true;
    for (const Span &s : spans) {
        std::string name = s.cat;
        if (s.layer >= 0 && map != nullptr) {
            // += chain: GCC 12 flags "literal" + string with -Wrestrict.
            name += ' ';
            name += map->keyName(s.layer);
        }
        os << (first ? "" : ",\n") << "{\"name\":\"" << name
           << "\",\"cat\":\"" << s.cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << s.tid << ",\"ts\":" << 1e-3 * static_cast<double>(s.t0_ns)
           << ",\"dur\":" << 1e-3 * static_cast<double>(s.t1_ns - s.t0_ns)
           << ",\"args\":{\"id\":" << s.id;
        if (s.m > 0)
            os << ",\"m\":" << s.m << ",\"k\":" << s.k << ",\"n\":" << s.n;
        os << "}}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

TimedBackend::TimedBackend(nn::GemmBackend *inner, const Tracer &tracer,
                           const LayerMap &map,
                           const std::atomic<uint64_t> *op_id)
    : inner_(inner), tracer_(tracer), map_(map), op_id_(op_id)
{
    spans_.reserve(1 << 12);
}

void
TimedBackend::gemm(std::span<const float> a, std::span<const float> b, int m,
                   int k, int n, bool a_is_grad, bool b_is_grad,
                   std::span<float> out)
{
    const int64_t t0 = tracer_.nowNs();
    inner_->gemm(a, b, m, k, n, a_is_grad, b_is_grad, out);
    Span s;
    s.cat = "gemm";
    s.t0_ns = t0;
    s.t1_ns = tracer_.nowNs();
    s.tid = threadIndex();
    s.id = op_id_ != nullptr ? op_id_->load(std::memory_order_relaxed)
                             : mirage::obs::currentRequestId();
    s.layer = map_.attribute(mirage::obs::fidelity::currentLayer(), m, k, n);
    s.m = m;
    s.k = k;
    s.n = n;
    spans_.push_back(s);
}

TimedOptimizer::TimedOptimizer(std::unique_ptr<nn::Optimizer> inner,
                               Tracer &tracer,
                               const std::atomic<uint64_t> &op_id)
    : inner_(std::move(inner)), tracer_(tracer), op_id_(op_id)
{
}

void
TimedOptimizer::step(const std::vector<nn::Param *> &params)
{
    Span s;
    s.cat = "optimizer";
    s.t0_ns = tracer_.nowNs();
    inner_->step(params);
    s.t1_ns = tracer_.nowNs();
    s.tid = threadIndex();
    s.id = op_id_.load(std::memory_order_relaxed);
    tracer_.record(s);
}

std::vector<ShapeUse>
shapeMix(const std::vector<Span> &gemm_spans)
{
    std::map<std::tuple<int, int, int>, ShapeUse> shapes;
    for (const Span &s : gemm_spans) {
        ShapeUse &u = shapes[{s.m, s.k, s.n}];
        u.m = s.m;
        u.k = s.k;
        u.n = s.n;
        u.calls += 1.0;
        u.measured_s += s.seconds();
    }
    std::vector<ShapeUse> mix;
    for (const auto &[key, u] : shapes)
        mix.push_back(u);
    return mix;
}

double
coveredSeconds(std::vector<std::pair<int64_t, int64_t>> spans, int64_t t0,
               int64_t t1)
{
    std::sort(spans.begin(), spans.end());
    int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (auto [a, b] : spans) {
        a = std::max(a, t0);
        b = std::min(b, t1);
        if (b <= a)
            continue;
        if (open && a <= cur_b) {
            cur_b = std::max(cur_b, b);
            continue;
        }
        if (open)
            covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
    }
    if (open)
        covered += cur_b - cur_a;
    return 1e-9 * static_cast<double>(covered);
}

double
reportLayers(Result &res, const LayerMap &map,
             const std::vector<Span> &gemm_spans, double ops,
             bool rows_per_call)
{
    const mirage::arch::MiragePerfModel perf{mirage::arch::MirageConfig{}};
    struct Acc
    {
        double host_s = 0.0, model_s = 0.0, rows = 0.0, macs = 0.0;
        uint64_t calls = 0;
    };
    std::vector<Acc> acc(map.keys() + 1); // last slot: unattributed
    // The perf model is analytic but not free; memoize per shape.
    std::map<std::tuple<int, int, int>, std::pair<double, double>> modeled;
    double all_macs = 0.0, all_util_macs = 0.0;
    for (const Span &s : gemm_spans) {
        Acc &a = acc[s.layer >= 0 ? static_cast<size_t>(s.layer) : map.keys()];
        const double macs = static_cast<double>(s.m) * s.k * s.n;
        auto it = modeled.find({s.m, s.k, s.n});
        if (it == modeled.end()) {
            const auto best = perf.best({s.m, s.k, s.n});
            it = modeled
                     .emplace(std::make_tuple(s.m, s.k, s.n),
                              std::make_pair(best.second.time_s,
                                             best.second.spatial_util))
                     .first;
        }
        a.host_s += s.seconds();
        a.model_s += it->second.first;
        a.macs += macs;
        a.rows += s.m;
        ++a.calls;
        all_macs += macs;
        all_util_macs += macs * it->second.second;
    }

    std::printf("%-16s %10s %8s %12s %12s %12s\n", "layer", "host_ms", "calls",
                "MACs", "MAC/s", "model_us");
    for (size_t key = 0; key < acc.size(); ++key) {
        const Acc &a = acc[key];
        if (a.calls == 0)
            continue;
        const std::string k =
            map.keyName(key < map.keys() ? static_cast<int>(key) : -1);
        const std::string p = "nn." + k;
        const double mps = a.host_s > 0 ? a.macs / a.host_s : 0.0;
        res.add(res.report, p + ".ms", 1e3 * a.host_s / ops, "ms");
        res.add(res.report, p + ".calls", static_cast<double>(a.calls) / ops,
                "count");
        res.add(res.report, p + ".macs", a.macs / ops, "MAC");
        res.add(res.report, p + ".mac_per_s", mps, "MAC/s");
        res.add(res.report, p + ".model_us", 1e6 * a.model_s / ops, "sim_us");
        if (rows_per_call)
            res.add(res.report, p + ".rows_per_call",
                    a.rows / static_cast<double>(a.calls), "count");
        std::printf("%-16s %10.4f %8.2f %12.0f %12.4g %12.4f\n", k.c_str(),
                    1e3 * a.host_s / ops, static_cast<double>(a.calls) / ops,
                    a.macs / ops, mps, 1e6 * a.model_s / ops);
    }
    std::printf("(per-layer figures are per %s; model_us is simulated "
                "accelerator time)\n",
                rows_per_call ? "request" : "step");
    return all_macs > 0 ? all_util_macs / all_macs : 0.0;
}

} // namespace pb
