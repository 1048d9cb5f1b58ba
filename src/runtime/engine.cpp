#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>

#include "common/logging.h"
#include "fault/injection.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace mirage {
namespace runtime {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Pre-registered engine metric handles: resolved once (magic static), so
 *  record sites never touch the registry map. Clock samples recorded here
 *  are the same ones RuntimeReport already takes — observability adds no
 *  new wall-clock reads to numeric state. */
struct EngineObs
{
    obs::Counter &jobs_submitted;
    obs::Counter &jobs_completed;
    obs::Counter &batches;
    obs::Counter &fused_jobs;
    obs::Counter &shards;
    obs::Counter &macs;
    obs::Counter &modeled_ns;
    obs::Counter &modeled_nj;
    obs::Counter &tile_failures;
    obs::Counter &tile_reintegrations;
    obs::Counter &job_retries;
    obs::Counter &jobs_failed;
    obs::Gauge &queue_depth;
    obs::Gauge &healthy_tiles;
    obs::Histogram &job_latency_ns;
    obs::Histogram &batch_jobs;

    static EngineObs &
    get()
    {
        static auto &reg = obs::MetricsRegistry::global();
        static EngineObs o{reg.counter("engine.jobs_submitted"),
                           reg.counter("engine.jobs_completed"),
                           reg.counter("engine.batches"),
                           reg.counter("engine.fused_jobs"),
                           reg.counter("engine.shards"),
                           reg.counter("engine.macs"),
                           reg.counter("engine.modeled_ns"),
                           reg.counter("engine.modeled_nj"),
                           reg.counter("engine.tile_failures"),
                           reg.counter("engine.tile_reintegrations"),
                           reg.counter("engine.job_retries"),
                           reg.counter("engine.jobs_failed"),
                           reg.gauge("engine.queue_depth"),
                           reg.gauge("engine.healthy_tiles"),
                           reg.histogram("engine.job_latency_ns"),
                           reg.histogram("engine.batch_jobs")};
        return o;
    }
};

/** Shared "engine.tile_fail" injection point (see fault/injection.h). */
fault::FaultPoint &
tileFailPoint()
{
    static fault::FaultPoint fp("engine.tile_fail");
    return fp;
}

} // namespace

void
EngineConfig::validate() const
{
    if (tiles <= 0)
        throw std::invalid_argument(
            "EngineConfig.tiles must be >= 1, got " + std::to_string(tiles));
    if (queue_capacity == 0)
        throw std::invalid_argument("EngineConfig.queue_capacity must be >= 1");
    if (max_batch <= 0)
        throw std::invalid_argument("EngineConfig.max_batch must be >= 1, got " +
                                    std::to_string(max_batch));
    if (max_job_attempts <= 0)
        throw std::invalid_argument(
            "EngineConfig.max_job_attempts must be >= 1, got " +
            std::to_string(max_job_attempts));
    if (tile_cooldown_dispatches <= 0)
        throw std::invalid_argument(
            "EngineConfig.tile_cooldown_dispatches must be >= 1, got " +
            std::to_string(tile_cooldown_dispatches));
}

double
RuntimeReport::avgLatencySeconds() const
{
    return jobs_completed > 0
               ? total_latency_s / static_cast<double>(jobs_completed)
               : 0.0;
}

double
RuntimeReport::throughputMacsPerSecond() const
{
    return wall_time_s > 0
               ? static_cast<double>(gemm_macs) / wall_time_s
               : 0.0;
}

double
RuntimeReport::utilization() const
{
    if (wall_time_s <= 0 || tiles <= 0)
        return 0.0;
    return busy_time_s / (wall_time_s * tiles);
}

// ---------------------------------------------------------------------------
// Job representation
// ---------------------------------------------------------------------------

namespace {

struct GemmJob
{
    GemmRequest req;
    std::promise<GemmResult> promise;
    Clock::time_point submitted;
    uint64_t ctx = 0; ///< Submitter's request id (causal tracing).
};

struct EstimateJob
{
    models::ModelShape model;
    int64_t batch = 1;
    bool training = false;
    std::promise<core::PerformanceReport> promise;
    Clock::time_point submitted;
    uint64_t ctx = 0; ///< Submitter's request id (causal tracing).
};

struct TaskJob
{
    std::function<void(core::MirageAccelerator &, Rng &)> fn;
    std::promise<void> promise;
    Clock::time_point submitted;
    uint64_t ctx = 0;        ///< Submitter's request id (causal tracing).
    double deadline_s = 0.0; ///< Failover budget [s]; 0 = none.
    /// Terminal-failure callback for submitters that discard the future.
    std::function<void(const std::string &)> on_fail;
};

using Job = std::variant<GemmJob, EstimateJob, TaskJob>;

/** One contiguous row range of one batched GEMM job. */
struct Shard
{
    size_t job = 0;      ///< Index into the dispatch group.
    int row_begin = 0;   ///< First A/C row of this shard.
    int row_end = 0;     ///< One past the last row.
};

} // namespace

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

struct RuntimeEngine::Impl
{
    /** One logical accelerator tile. Only one shard runs on a tile at a
     *  time, so the accelerator's mutable backends need no locking.
     *  `healthy`/`cooldown` are guarded by mu: health is read when a
     *  dispatch is planned and written when a failure is collected or a
     *  cooldown expires, never concurrently with shard execution. */
    struct Tile
    {
        core::MirageAccelerator accel;
        Rng rng;
        bool healthy = true;
        int cooldown = 0; ///< Dispatches left before a reintegration probe.

        Tile(const arch::MirageConfig &cfg, Rng stream)
            : accel(cfg), rng(stream)
        {
        }
    };

    /** One tile health transition to publish to listeners. */
    struct TileEvent
    {
        int tile = 0;
        bool healthy = false;
    };

    explicit Impl(EngineConfig config) : cfg(std::move(config))
    {
        cfg.validate();
        const Rng root(cfg.seed);
        tiles.reserve(static_cast<size_t>(cfg.tiles));
        tile_macs.reserve(static_cast<size_t>(cfg.tiles));
        for (int t = 0; t < cfg.tiles; ++t) {
            tiles.push_back(std::make_unique<Tile>(
                cfg.accel, root.split(static_cast<uint64_t>(t))));
            // Per-tile MAC counters, registered up front so the shard hot
            // path only does a relaxed fetch_add.
            tile_macs.push_back(&obs::MetricsRegistry::global().counter(
                "engine.tile" + std::to_string(t) + ".macs"));
        }
        start = Clock::now();
        stats.tiles = cfg.tiles;
        EngineObs::get().healthy_tiles.set(cfg.tiles);
        dispatcher = std::thread([this] { dispatchLoop(); });
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stop = true;
        }
        not_empty.notify_all();
        dispatcher.join();
    }

    void
    enqueue(Job job)
    {
        std::unique_lock<std::mutex> lk(mu);
        MIRAGE_ASSERT(!stop, "submit on a stopped RuntimeEngine");
        not_full.wait(lk,
                      [this] { return queue.size() < cfg.queue_capacity; });
        queue.push_back(std::move(job));
        ++stats.jobs_submitted;
        stats.max_queue_depth = std::max(stats.max_queue_depth, queue.size());
        EngineObs::get().queue_depth.set(static_cast<int64_t>(queue.size()));
        lk.unlock();
        not_empty.notify_one();
        EngineObs::get().jobs_submitted.add(1);
    }

    void
    dispatchLoop()
    {
        for (;;) {
            std::unique_lock<std::mutex> lk(mu);
            not_empty.wait(lk, [this] { return stop || !queue.empty(); });
            if (queue.empty()) {
                if (stop)
                    return;
                continue;
            }
            Job first = std::move(queue.front());
            queue.pop_front();
            // Unhealthy tiles count down one cooldown step per dispatch;
            // expired ones rejoin the healthy set (the next dispatch that
            // lands on them is the reintegration probe).
            const std::vector<TileEvent> probes = advanceCooldownsLocked();

            if (std::holds_alternative<GemmJob>(first)) {
                // Fuse queued GEMM jobs with the same contraction depth and
                // output width into one dispatch group (stable order).
                std::vector<GemmJob> group;
                {
                    MIRAGE_SPAN("engine.fuse");
                    group.push_back(std::move(std::get<GemmJob>(first)));
                    const int k = group.front().req.k;
                    const int n = group.front().req.n;
                    for (auto it = queue.begin();
                         it != queue.end() &&
                         group.size() < static_cast<size_t>(cfg.max_batch);) {
                        GemmJob *g = std::get_if<GemmJob>(&*it);
                        if (g != nullptr && g->req.k == k && g->req.n == n) {
                            group.push_back(std::move(*g));
                            it = queue.erase(it);
                        } else {
                            ++it;
                        }
                    }
                }
                in_flight += group.size();
                EngineObs::get().queue_depth.set(
                    static_cast<int64_t>(queue.size()));
                lk.unlock();
                not_full.notify_all();
                publishTileEvents(probes);
                EngineObs::get().fused_jobs.add(group.size() - 1);
                executeGemmGroup(std::move(group));
            } else {
                in_flight += 1;
                EngineObs::get().queue_depth.set(
                    static_cast<int64_t>(queue.size()));
                lk.unlock();
                not_full.notify_all();
                publishTileEvents(probes);
                executeSingle(std::move(first));
            }
        }
    }

    /** Healthy tile indices; when every tile is unhealthy, forces a probe
     *  of the tile closest to reintegration so the engine never wedges. */
    std::vector<size_t>
    planTiles(bool *forced_probe)
    {
        std::lock_guard<std::mutex> lk(mu);
        std::vector<size_t> active;
        for (size_t t = 0; t < tiles.size(); ++t) {
            if (tiles[t]->healthy)
                active.push_back(t);
        }
        *forced_probe = active.empty();
        if (active.empty()) {
            size_t probe = 0;
            for (size_t t = 1; t < tiles.size(); ++t) {
                if (tiles[t]->cooldown < tiles[probe]->cooldown)
                    probe = t;
            }
            active.push_back(probe);
        }
        return active;
    }

    /** Marks `failed` tiles unhealthy and publishes the transitions. */
    void
    markTilesFailed(const std::vector<size_t> &failed)
    {
        std::vector<TileEvent> events;
        int healthy_now = 0;
        {
            std::lock_guard<std::mutex> lk(mu);
            for (const size_t t : failed) {
                Tile &tile = *tiles[t];
                if (tile.healthy) {
                    tile.healthy = false;
                    ++stats.tile_failures;
                    events.push_back({static_cast<int>(t), false});
                }
                tile.cooldown = cfg.tile_cooldown_dispatches;
            }
            for (const auto &t : tiles)
                healthy_now += t->healthy ? 1 : 0;
        }
        if (events.empty())
            return;
        EngineObs::get().tile_failures.add(events.size());
        EngineObs::get().healthy_tiles.set(healthy_now);
        for (const TileEvent &e : events)
            MIRAGE_WARN("engine: tile ", e.tile, " marked unhealthy (",
                        healthy_now, "/", tiles.size(), " tiles healthy)");
        publishTileEvents(events);
    }

    /** Marks one tile healthy after a successful forced probe. */
    void
    markTileRecovered(size_t t)
    {
        int healthy_now = 0;
        {
            std::lock_guard<std::mutex> lk(mu);
            Tile &tile = *tiles[t];
            if (tile.healthy)
                return;
            tile.healthy = true;
            tile.cooldown = 0;
            ++stats.tile_reintegrations;
            for (const auto &tp : tiles)
                healthy_now += tp->healthy ? 1 : 0;
        }
        EngineObs::get().tile_reintegrations.add(1);
        EngineObs::get().healthy_tiles.set(healthy_now);
        publishTileEvents({TileEvent{static_cast<int>(t), true}});
    }

    /** Steps every unhealthy tile's cooldown; expired tiles rejoin.
     *  Caller holds mu; returned events go to publishTileEvents after
     *  the lock is dropped. */
    std::vector<TileEvent>
    advanceCooldownsLocked()
    {
        std::vector<TileEvent> events;
        for (size_t t = 0; t < tiles.size(); ++t) {
            Tile &tile = *tiles[t];
            if (tile.healthy)
                continue;
            if (tile.cooldown > 0 && --tile.cooldown == 0) {
                tile.healthy = true;
                ++stats.tile_reintegrations;
                events.push_back({static_cast<int>(t), true});
            }
        }
        if (!events.empty()) {
            int healthy_now = 0;
            for (const auto &t : tiles)
                healthy_now += t->healthy ? 1 : 0;
            EngineObs::get().tile_reintegrations.add(events.size());
            EngineObs::get().healthy_tiles.set(healthy_now);
        }
        return events;
    }

    /** Invokes every registered tile listener for each event. */
    void
    publishTileEvents(const std::vector<TileEvent> &events)
    {
        if (events.empty())
            return;
        std::vector<std::function<void(int, bool)>> snapshot;
        {
            std::lock_guard<std::mutex> lk(listeners_mu);
            snapshot.reserve(listeners.size());
            for (const auto &kv : listeners)
                snapshot.push_back(kv.second);
        }
        for (const TileEvent &e : events) {
            for (const auto &fn : snapshot)
                fn(e.tile, e.healthy);
        }
    }

    /** Smallest remaining deadline budget across `group` [s]; +inf when no
     *  job carries a deadline. */
    static double
    remainingBudget(const std::vector<GemmJob> &group, Clock::time_point now)
    {
        double remaining = std::numeric_limits<double>::infinity();
        for (const GemmJob &job : group) {
            if (job.req.deadline_s > 0.0) {
                remaining = std::min(remaining, job.req.deadline_s -
                                                    secondsSince(job.submitted,
                                                                 now));
            }
        }
        return remaining;
    }

    /** Deadline-aware backoff before retry attempt `attempt + 1`: an
     *  exponential pause, truncated so it never spends more than half of
     *  the tightest remaining deadline. */
    static void
    backoff(int attempt, double remaining_s)
    {
        double pause_s = std::min(100e-6 * (1 << std::min(attempt - 1, 6)),
                                  5e-3);
        if (remaining_s != std::numeric_limits<double>::infinity())
            pause_s = std::min(pause_s, std::max(0.0, remaining_s * 0.5));
        if (pause_s > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(pause_s));
    }

    /**
     * Executes a dispatch group: every job's rows are cut into at most
     * `tiles` shards, shards are assigned round-robin, and each tile runs
     * its shards sequentially while tiles run in parallel on the global
     * pool. Row sharding is exact — every output element is produced by
     * the same per-element computation as an unsharded run.
     *
     * Failover: a tile that throws TileFailure (injected via
     * "engine.tile_fail" or real) is marked unhealthy and the whole group
     * is re-planned over the surviving tiles and re-executed — result
     * buffers are rewritten wholesale, and re-sharding preserves
     * bit-identical results (see the file header). Attempts are bounded
     * by cfg.max_job_attempts and by the tightest job deadline.
     */
    void
    executeGemmGroup(std::vector<GemmJob> group)
    {
        MIRAGE_SPAN("engine.batch");
        const Clock::time_point dispatch_start = Clock::now();

        std::vector<std::vector<float>> results(group.size());
        std::vector<int> job_shards(group.size(), 0);
        std::exception_ptr error;
        double busy_total = 0.0;
        uint64_t survived_failures = 0;
        int attempt = 0;

        for (;;) {
            ++attempt;
            bool forced_probe = false;
            const std::vector<size_t> active = planTiles(&forced_probe);
            const int tile_count = static_cast<int>(active.size());

            // Shard plan: prefer job-level parallelism — row-splitting a
            // job means every shard re-encodes the job's full B operand,
            // so rows are only split when the fused group alone cannot
            // fill the active tiles.
            const int shards_per_job = std::max(
                1, tile_count / static_cast<int>(group.size()));
            std::vector<Shard> shards;
            for (size_t j = 0; j < group.size(); ++j) {
                const GemmRequest &req = group[j].req;
                results[j].assign(static_cast<size_t>(req.m) * req.n, 0.0f);
                const int rows_per_shard =
                    std::max(1, (req.m + shards_per_job - 1) / shards_per_job);
                job_shards[j] = 0;
                for (int r0 = 0; r0 < req.m; r0 += rows_per_shard) {
                    shards.push_back({j, r0,
                                      std::min(req.m, r0 + rows_per_shard)});
                    ++job_shards[j];
                }
            }

            // shard s runs on active tile s % tile_count; one parallelFor
            // block per tile keeps each accelerator single-threaded while
            // tiles overlap: with several legs, each runs its GEMMs inline
            // (SerialScope). Row loops forked from every leg wake helpers
            // that the host may start late or on a busy vCPU, and each
            // join waits for them, so throughput followed host load. A
            // lone leg keeps the whole pool. Each leg records its own
            // failure slot, so a TileFailure aborts that tile's shards
            // without touching the other legs.
            std::vector<double> tile_busy(active.size(), 0.0);
            std::vector<char> leg_failed(active.size(), 0);
            try {
                ThreadPool::global().parallelFor(
                    tile_count, 1, [&](int64_t t0, int64_t t1) {
                        for (int64_t t = t0; t < t1; ++t) {
                            MIRAGE_SPAN("engine.tile");
                            std::optional<SerialScope> inline_leg;
                            if (tile_count > 1)
                                inline_leg.emplace();
                            const Clock::time_point tile_start = Clock::now();
                            bool ran = false;
                            try {
                                for (size_t s = static_cast<size_t>(t);
                                     s < shards.size();
                                     s += static_cast<size_t>(tile_count)) {
                                    if (!ran && tileFailPoint().shouldFire())
                                        throw TileFailure(
                                            "injected tile failure "
                                            "(engine.tile_fail)");
                                    runShard(group, shards[s],
                                             *tiles[active[static_cast<size_t>(
                                                 t)]],
                                             active[static_cast<size_t>(t)],
                                             results);
                                    ran = true;
                                }
                            } catch (const TileFailure &) {
                                leg_failed[static_cast<size_t>(t)] = 1;
                            }
                            if (ran || leg_failed[static_cast<size_t>(t)]) {
                                tile_busy[static_cast<size_t>(t)] =
                                    secondsSince(tile_start, Clock::now());
                            }
                        }
                    });
            } catch (...) {
                error = std::current_exception();
            }
            for (double b : tile_busy)
                busy_total += b;
            if (error)
                break;

            std::vector<size_t> failed;
            for (size_t t = 0; t < leg_failed.size(); ++t) {
                if (leg_failed[t])
                    failed.push_back(active[t]);
            }
            if (failed.empty()) {
                if (forced_probe)
                    markTileRecovered(active[0]);
                // Every failure this group survived is a recovered fault.
                for (uint64_t i = 0; i < survived_failures; ++i)
                    fault::recovered("engine.tile_fail");
                break;
            }

            survived_failures += failed.size();
            markTilesFailed(failed);
            const double remaining = remainingBudget(group, Clock::now());
            if (attempt >= cfg.max_job_attempts) {
                error = std::make_exception_ptr(TileFailure(
                    "GEMM batch failed: tiles kept failing through " +
                    std::to_string(attempt) + " attempts"));
                break;
            }
            if (remaining <= 0.0) {
                error = std::make_exception_ptr(TileFailure(
                    "GEMM batch failed: deadline exhausted after tile "
                    "failure (attempt " +
                    std::to_string(attempt) + ")"));
                break;
            }
            MIRAGE_SPAN("engine.retry");
            {
                std::lock_guard<std::mutex> lk(mu);
                stats.job_retries += group.size();
            }
            EngineObs::get().job_retries.add(group.size());
            backoff(attempt, remaining);
        }

        // Fulfill promises before publishing completion, so drain() never
        // unblocks while a future is still pending.
        const Clock::time_point end = Clock::now();
        for (size_t j = 0; j < group.size(); ++j) {
            if (error) {
                group[j].promise.set_exception(error);
                continue;
            }
            GemmResult res;
            res.c = std::move(results[j]);
            res.latency_s = secondsSince(group[j].submitted, end);
            res.queue_s = secondsSince(group[j].submitted, dispatch_start);
            res.shards = job_shards[j];
            group[j].promise.set_value(std::move(res));
        }

        {
            std::lock_guard<std::mutex> lk(mu);
            ++stats.batches_dispatched;
            stats.largest_batch =
                std::max<uint64_t>(stats.largest_batch, group.size());
            stats.busy_time_s += busy_total;
            if (error)
                stats.jobs_failed += group.size();
            for (size_t j = 0; j < group.size(); ++j) {
                const GemmRequest &req = group[j].req;
                const double latency = secondsSince(group[j].submitted, end);
                ++stats.jobs_completed;
                ++stats.gemm_jobs;
                stats.gemm_macs += static_cast<int64_t>(req.m) * req.k * req.n;
                stats.total_latency_s += latency;
                stats.max_latency_s = std::max(stats.max_latency_s, latency);
                EngineObs::get().job_latency_ns.recordNanosOf(latency);
            }
            in_flight -= group.size();
        }
        if (error)
            EngineObs::get().jobs_failed.add(group.size());
        EngineObs::get().batches.add(1);
        EngineObs::get().batch_jobs.record(group.size());
        EngineObs::get().jobs_completed.add(group.size());
        idle.notify_all();
    }

    void
    runShard(std::vector<GemmJob> &group, const Shard &shard, Tile &tile,
             size_t tile_index, std::vector<std::vector<float>> &results)
    {
        MIRAGE_SPAN("engine.shard");
        // Pool-thread leg of the causal trace: the shard runs under the
        // submitting request's context.
        obs::RequestScope ctx_scope(group[shard.job].ctx);
        obs::traceFlow("request", group[shard.job].ctx, 't');
        const GemmRequest &req = group[shard.job].req;
        const int rows = shard.row_end - shard.row_begin;
        const uint64_t shard_macs = static_cast<uint64_t>(rows) *
                                    static_cast<uint64_t>(req.k) *
                                    static_cast<uint64_t>(req.n);
        EngineObs::get().shards.add(1);
        EngineObs::get().macs.add(shard_macs);
        tile_macs[tile_index]->add(shard_macs);
        // Shard rows are contiguous, so both the A slice and the C slice
        // are zero-copy views — the accelerator writes its output straight
        // into the caller-visible result buffer.
        const std::span<const float> a_slice(
            req.a.data() + static_cast<size_t>(shard.row_begin) * req.k,
            static_cast<size_t>(rows) * req.k);
        const std::span<float> c_slice(
            results[shard.job].data() +
                static_cast<size_t>(shard.row_begin) * req.n,
            static_cast<size_t>(rows) * req.n);
        tile.accel.gemm(a_slice, req.b, c_slice, rows, req.k, req.n,
                        cfg.mode);
    }

    /** Round-robin pick over the healthy tiles; forces a probe of the
     *  tile closest to reintegration when everything is unhealthy. */
    size_t
    pickTile(bool *forced_probe)
    {
        std::lock_guard<std::mutex> lk(mu);
        *forced_probe = false;
        for (size_t i = 0; i < tiles.size(); ++i) {
            const size_t t = (next_tile + i) % tiles.size();
            if (tiles[t]->healthy) {
                next_tile = (t + 1) % tiles.size();
                return t;
            }
        }
        *forced_probe = true;
        size_t probe = 0;
        for (size_t t = 1; t < tiles.size(); ++t) {
            if (tiles[t]->cooldown < tiles[probe]->cooldown)
                probe = t;
        }
        next_tile = (probe + 1) % tiles.size();
        return probe;
    }

    void
    executeSingle(Job job)
    {
        const Clock::time_point exec_start = Clock::now();

        // Job failures travel through the future, never up the dispatcher
        // thread; the promise is fulfilled before completion is published
        // so drain() implies every future is ready.
        if (EstimateJob *est = std::get_if<EstimateJob>(&job)) {
            MIRAGE_SPAN("engine.estimate");
            bool forced_probe = false;
            Tile &tile = *tiles[pickTile(&forced_probe)];
            // Re-establish the submitter's request context on the
            // dispatcher thread and mark the flow through this slice.
            obs::RequestScope ctx_scope(est->ctx);
            obs::traceFlow("request", est->ctx, 't');
            try {
                const core::PerformanceReport rep =
                    est->training
                        ? tile.accel.estimateTraining(est->model, est->batch)
                        : tile.accel.estimateInference(est->model,
                                                       est->batch);
                // Fold the modeled photonic cost into the registry: what
                // the perf/energy models predicted this job would cost on
                // the accelerator, in integer nanoseconds/nanojoules.
                EngineObs::get().modeled_ns.add(obs::toNanos(rep.time_s));
                EngineObs::get().modeled_nj.add(obs::toNanos(rep.energy_j));
                est->promise.set_value(rep);
            } catch (...) {
                est->promise.set_exception(std::current_exception());
            }
            finishSingle(exec_start, est->submitted, est->training
                                                        ? JobKind::Training
                                                        : JobKind::Inference);
        } else {
            MIRAGE_SPAN("engine.task");
            TaskJob &task = std::get<TaskJob>(job);
            obs::RequestScope ctx_scope(task.ctx);
            obs::traceFlow("request", task.ctx, 't');
            executeTask(task);
            finishSingle(exec_start, task.submitted, JobKind::Task);
        }
    }

    /**
     * Runs one TaskJob with tile failover: a TileFailure (injected before
     * the body runs, or thrown by the body) marks the tile unhealthy and
     * re-executes the task on the next healthy tile, bounded by
     * cfg.max_job_attempts and the task deadline. Terminal failures reach
     * both the future and the task's on_fail callback; non-TileFailure
     * exceptions keep their original single-shot semantics.
     */
    void
    executeTask(TaskJob &task)
    {
        uint64_t survived_failures = 0;
        int attempt = 0;
        for (;;) {
            ++attempt;
            bool forced_probe = false;
            const size_t t = pickTile(&forced_probe);
            Tile &tile = *tiles[t];
            try {
                // The injection fires before the body runs, so a retried
                // task re-executes from a clean slate.
                if (tileFailPoint().shouldFire())
                    throw TileFailure(
                        "injected tile failure (engine.tile_fail)");
                task.fn(tile.accel, tile.rng);
                if (forced_probe)
                    markTileRecovered(t);
                for (uint64_t i = 0; i < survived_failures; ++i)
                    fault::recovered("engine.tile_fail");
                task.promise.set_value();
                return;
            } catch (const TileFailure &tf) {
                ++survived_failures;
                markTilesFailed({t});
                const double remaining =
                    task.deadline_s > 0.0
                        ? task.deadline_s -
                              secondsSince(task.submitted, Clock::now())
                        : std::numeric_limits<double>::infinity();
                std::string why;
                if (attempt >= cfg.max_job_attempts) {
                    why = "task failed: tiles kept failing through " +
                          std::to_string(attempt) +
                          " attempts: " + tf.what();
                } else if (remaining <= 0.0) {
                    why = "task failed: deadline exhausted after tile "
                          "failure: " +
                          std::string(tf.what());
                } else {
                    MIRAGE_SPAN("engine.retry");
                    {
                        std::lock_guard<std::mutex> lk(mu);
                        ++stats.job_retries;
                    }
                    EngineObs::get().job_retries.add(1);
                    backoff(attempt, remaining);
                    continue;
                }
                failTaskTerminally(task, why,
                                   std::make_exception_ptr(TileFailure(why)));
                return;
            } catch (...) {
                const std::exception_ptr err = std::current_exception();
                std::string why = "task failed";
                try {
                    std::rethrow_exception(err);
                } catch (const std::exception &e) {
                    why = std::string("task failed: ") + e.what();
                } catch (...) {
                }
                failTaskTerminally(task, why, err);
                return;
            }
        }
    }

    void
    failTaskTerminally(TaskJob &task, const std::string &why,
                       std::exception_ptr err)
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            ++stats.jobs_failed;
        }
        EngineObs::get().jobs_failed.add(1);
        if (task.on_fail)
            task.on_fail(why);
        task.promise.set_exception(std::move(err));
    }

    enum class JobKind
    {
        Inference,
        Training,
        Task
    };

    void
    finishSingle(Clock::time_point exec_start, Clock::time_point submitted,
                 JobKind kind)
    {
        const Clock::time_point end = Clock::now();
        const double latency = secondsSince(submitted, end);
        {
            std::lock_guard<std::mutex> lk(mu);
            ++stats.jobs_completed;
            switch (kind) {
              case JobKind::Inference: ++stats.inference_jobs; break;
              case JobKind::Training: ++stats.training_jobs; break;
              case JobKind::Task: ++stats.task_jobs; break;
            }
            stats.busy_time_s += secondsSince(exec_start, end);
            stats.total_latency_s += latency;
            stats.max_latency_s = std::max(stats.max_latency_s, latency);
            in_flight -= 1;
        }
        EngineObs::get().jobs_completed.add(1);
        EngineObs::get().job_latency_ns.recordNanosOf(latency);
        idle.notify_all();
    }

    EngineConfig cfg;
    std::vector<std::unique_ptr<Tile>> tiles;
    /// Per-tile MAC counters (registry-owned), parallel to `tiles`.
    std::vector<obs::Counter *> tile_macs;

    mutable std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::condition_variable idle;
    std::deque<Job> queue;
    size_t in_flight = 0;
    bool stop = false;

    RuntimeReport stats; ///< Guarded by mu (wall_time_s filled on read).
    Clock::time_point start;
    size_t next_tile = 0; ///< Round-robin tile for non-GEMM jobs (mu).

    /// Tile health listeners; their own lock so callbacks never run (or
    /// register) under the queue mutex.
    std::mutex listeners_mu;
    std::map<int, std::function<void(int, bool)>> listeners;
    int next_listener_id = 1;

    std::thread dispatcher;
};

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

RuntimeEngine::RuntimeEngine(EngineConfig cfg)
    : impl_(std::make_unique<Impl>(std::move(cfg)))
{
}

RuntimeEngine::~RuntimeEngine() = default;

const EngineConfig &
RuntimeEngine::config() const
{
    return impl_->cfg;
}

std::future<GemmResult>
RuntimeEngine::submitGemm(GemmRequest req)
{
    MIRAGE_ASSERT(req.m > 0 && req.k > 0 && req.n > 0, "bad GEMM dims");
    MIRAGE_ASSERT(req.a.size() == static_cast<size_t>(req.m) * req.k,
                  "A shape mismatch");
    MIRAGE_ASSERT(req.b.size() == static_cast<size_t>(req.k) * req.n,
                  "B shape mismatch");
    GemmJob job;
    job.req = std::move(req);
    job.ctx = obs::currentRequestId();
    job.submitted = Clock::now();
    std::future<GemmResult> fut = job.promise.get_future();
    impl_->enqueue(std::move(job));
    return fut;
}

std::future<core::PerformanceReport>
RuntimeEngine::submitInference(models::ModelShape model, int64_t batch)
{
    EstimateJob job;
    job.model = std::move(model);
    job.batch = batch;
    job.training = false;
    job.ctx = obs::currentRequestId();
    job.submitted = Clock::now();
    std::future<core::PerformanceReport> fut = job.promise.get_future();
    impl_->enqueue(std::move(job));
    return fut;
}

std::future<core::PerformanceReport>
RuntimeEngine::submitTraining(models::ModelShape model, int64_t batch)
{
    EstimateJob job;
    job.model = std::move(model);
    job.batch = batch;
    job.training = true;
    job.ctx = obs::currentRequestId();
    job.submitted = Clock::now();
    std::future<core::PerformanceReport> fut = job.promise.get_future();
    impl_->enqueue(std::move(job));
    return fut;
}

std::future<void>
RuntimeEngine::submitTask(
    std::function<void(core::MirageAccelerator &, Rng &)> task)
{
    return submitTask(std::move(task), TaskOptions{});
}

std::future<void>
RuntimeEngine::submitTask(
    std::function<void(core::MirageAccelerator &, Rng &)> task,
    TaskOptions opts)
{
    TaskJob job;
    job.fn = std::move(task);
    job.ctx = obs::currentRequestId();
    job.submitted = Clock::now();
    job.deadline_s = opts.deadline_s;
    job.on_fail = std::move(opts.on_fail);
    std::future<void> fut = job.promise.get_future();
    impl_->enqueue(std::move(job));
    return fut;
}

void
RuntimeEngine::failTile(int tile)
{
    MIRAGE_ASSERT(tile >= 0 && tile < impl_->cfg.tiles,
                  "failTile: tile out of range");
    impl_->markTilesFailed({static_cast<size_t>(tile)});
}

int
RuntimeEngine::healthyTiles() const
{
    std::lock_guard<std::mutex> lk(impl_->mu);
    int healthy = 0;
    for (const auto &t : impl_->tiles)
        healthy += t->healthy ? 1 : 0;
    return healthy;
}

int
RuntimeEngine::addTileListener(std::function<void(int, bool)> listener)
{
    std::lock_guard<std::mutex> lk(impl_->listeners_mu);
    const int id = impl_->next_listener_id++;
    impl_->listeners.emplace(id, std::move(listener));
    return id;
}

void
RuntimeEngine::removeTileListener(int id)
{
    std::lock_guard<std::mutex> lk(impl_->listeners_mu);
    impl_->listeners.erase(id);
}

void
RuntimeEngine::drain()
{
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->idle.wait(lk, [this] {
        return impl_->queue.empty() && impl_->in_flight == 0;
    });
}

size_t
RuntimeEngine::queueDepth() const
{
    std::lock_guard<std::mutex> lk(impl_->mu);
    return impl_->queue.size();
}

RuntimeReport
RuntimeEngine::report() const
{
    std::lock_guard<std::mutex> lk(impl_->mu);
    RuntimeReport rep = impl_->stats;
    rep.wall_time_s = secondsSince(impl_->start, Clock::now());
    return rep;
}

} // namespace runtime
} // namespace mirage
