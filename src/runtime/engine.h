#ifndef MIRAGE_RUNTIME_ENGINE_H
#define MIRAGE_RUNTIME_ENGINE_H

/**
 * @file
 * RuntimeEngine: an asynchronous, batched execution runtime in front of N
 * logical accelerator tiles. Each tile owns a full MirageAccelerator (its
 * numerics backends plus the analytic performance/power models) and a
 * deterministic per-tile Rng stream (Rng::split of the engine seed).
 *
 * Jobs — single GEMMs, inference passes and training steps over the
 * models::zoo shapes, or arbitrary per-tile tasks — enter through a
 * thread-safe bounded queue (submission blocks when the queue is full,
 * which is the engine's backpressure signal) and complete through
 * std::future. A dispatcher thread fuses compatible GEMM jobs (equal K and
 * N) into one batch, shards the batch's rows across the tiles, and runs
 * the shards on the global ThreadPool, one pool block per tile. With one
 * active tile the per-format GEMM hot paths parallelize further over
 * rows/moduli; with several, each tile runs its shards inline
 * (runtime::SerialScope), so the tiles are the parallelism. Non-GEMM jobs run
 * FIFO on the dispatcher thread itself (they are lightweight analytic
 * estimates or caller-supplied tasks; a long task therefore delays jobs
 * queued behind it).
 *
 * Determinism: with rounding-deterministic numerics (the default Mirage
 * BFP+RNS configuration rounds to nearest and draws no randomness) every
 * job's result is bit-identical to a serial single-tile run, independent
 * of thread count, tile count, or how jobs were batched — row sharding
 * never changes the per-element accumulation order.
 *
 * Fault tolerance: every tile carries a health state. A TileFailure
 * thrown while a tile executes (the "engine.tile_fail" injection point,
 * or real hardware-model faults) marks that tile unhealthy; the failed
 * job — and its whole fused batch — is retried on the remaining healthy
 * tiles with bounded attempts and deadline-aware backoff. Re-sharding
 * over fewer tiles is bit-identical because sharding never changes the
 * per-element accumulation order and per-unit Rng streams are keyed by
 * logical row, not tile. An unhealthy tile sits out for
 * `tile_cooldown_dispatches` dispatches, then rejoins on a probe; tile
 * health transitions are published to registered listeners (the serving
 * layer uses them to degrade admission capacity and drop the dead
 * tile's weight-cache entries).
 */

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mirage.h"
#include "models/zoo.h"

namespace mirage {
namespace runtime {

/** Engine configuration. */
struct EngineConfig
{
    /// Logical accelerator tiles (each a MirageAccelerator + Rng stream).
    int tiles = 2;
    /// Bounded job-queue capacity; submit*() blocks while the queue is full.
    size_t queue_capacity = 64;
    /// Maximum number of compatible GEMM jobs fused into one dispatch.
    int max_batch = 4;
    /// Root seed: tile t draws from Rng(seed).split(t).
    uint64_t seed = 0x4d495241u;
    /// Numerics used by GEMM jobs (Emulated: BFP+RNS integer emulation).
    core::ExecutionMode mode = core::ExecutionMode::Emulated;
    /// Configuration applied to every tile's accelerator.
    arch::MirageConfig accel;
    /// Executions of one job before it fails terminally (first + retries).
    int max_job_attempts = 3;
    /// Dispatches an unhealthy tile sits out before a reintegration probe.
    /// Dispatch-count (not time) based so failover schedules replay
    /// deterministically under a fixed workload.
    int tile_cooldown_dispatches = 8;

    /**
     * Throws std::invalid_argument naming the offending knob when
     * tiles <= 0, queue_capacity == 0, or max_batch <= 0. RuntimeEngine
     * construction calls this, so invalid configurations fail fast with a
     * catchable error instead of whatever follows downstream.
     */
    void validate() const;
};

/** One asynchronous GEMM request: C[m x n] = A[m x k] * B[k x n]. */
struct GemmRequest
{
    std::vector<float> a;
    std::vector<float> b;
    int m = 0, k = 0, n = 0;
    /// Optional submit-to-completion budget [s]; 0 = none. Failover
    /// retries back off only within this budget and the job fails
    /// terminally once it is exhausted.
    double deadline_s = 0.0;
};

/** Completed GEMM: the result matrix plus per-job timing. */
struct GemmResult
{
    std::vector<float> c;
    double latency_s = 0.0; ///< Submit-to-completion wall time [s].
    double queue_s = 0.0;   ///< Portion spent waiting in the queue [s].
    int shards = 0;         ///< Row shards the job was split into.
};

/** Aggregate engine statistics; all durations are wall-clock seconds. */
struct RuntimeReport
{
    uint64_t jobs_submitted = 0;
    uint64_t jobs_completed = 0;
    uint64_t gemm_jobs = 0;
    uint64_t inference_jobs = 0;
    uint64_t training_jobs = 0;
    uint64_t task_jobs = 0;
    uint64_t batches_dispatched = 0; ///< GEMM dispatch groups executed.
    uint64_t largest_batch = 0;      ///< Most GEMM jobs fused in one group.
    uint64_t tile_failures = 0;      ///< Tile unhealthy transitions.
    uint64_t tile_reintegrations = 0; ///< Cooldown probes back to healthy.
    uint64_t job_retries = 0;        ///< Job executions repeated by failover.
    uint64_t jobs_failed = 0;        ///< Jobs failed after retries exhausted.
    int64_t gemm_macs = 0;           ///< Sum of m*k*n over completed GEMMs.
    double wall_time_s = 0.0;        ///< Engine lifetime so far.
    double busy_time_s = 0.0;        ///< Sum of per-tile busy seconds.
    double total_latency_s = 0.0;    ///< Sum of per-job latencies.
    double max_latency_s = 0.0;
    size_t max_queue_depth = 0;
    int tiles = 0;

    /** Mean submit-to-completion latency per job [s]. */
    double avgLatencySeconds() const;

    /** Aggregate GEMM throughput [MAC/s] over the engine lifetime. */
    double throughputMacsPerSecond() const;

    /** Mean fraction of tiles busy: busy / (wall * tiles), in [0, 1]. */
    double utilization() const;
};

/**
 * Thrown (by the hardware model, the "engine.tile_fail" injection point,
 * or a submitted task) to signal that the executing tile failed. The
 * engine reacts by marking the tile unhealthy and retrying the job on the
 * remaining healthy tiles; any other exception type propagates to the
 * job's future untouched. A task that throws TileFailure is re-executed
 * on another tile, so task bodies must be idempotent up to the point
 * where they can fail.
 */
class TileFailure : public std::runtime_error
{
  public:
    explicit TileFailure(const std::string &what) : std::runtime_error(what)
    {
    }
};

/** Per-task execution options (see submitTask). */
struct TaskOptions
{
    /// Submit-to-completion budget [s]; 0 = none. Bounds failover backoff
    /// the same way GemmRequest::deadline_s does.
    double deadline_s = 0.0;
    /// Called (from the dispatcher thread) with a failure description if
    /// the task fails terminally — retries exhausted or a non-TileFailure
    /// exception. Lets fire-and-forget submitters that discard the future
    /// observe engine-side failure; the future still carries the
    /// exception either way.
    std::function<void(const std::string &)> on_fail;
};

/**
 * The runtime engine. Construction spins up the dispatcher; destruction
 * drains every queued job (all futures complete) and joins.
 */
class RuntimeEngine
{
  public:
    explicit RuntimeEngine(EngineConfig cfg = {});
    ~RuntimeEngine();

    RuntimeEngine(const RuntimeEngine &) = delete;
    RuntimeEngine &operator=(const RuntimeEngine &) = delete;

    const EngineConfig &config() const;

    /** Queues one GEMM; blocks while the queue is full (backpressure). */
    std::future<GemmResult> submitGemm(GemmRequest req);

    /** Queues a full inference-pass estimate for a zoo model shape. */
    std::future<core::PerformanceReport>
    submitInference(models::ModelShape model, int64_t batch);

    /** Queues a training-step estimate (3 GEMMs/layer) for a zoo model. */
    std::future<core::PerformanceReport>
    submitTraining(models::ModelShape model, int64_t batch);

    /**
     * Queues an arbitrary task that runs on one tile with exclusive access
     * to its accelerator and its deterministic per-tile Rng stream.
     */
    std::future<void>
    submitTask(std::function<void(core::MirageAccelerator &, Rng &)> task);

    /** submitTask with a deadline budget and a terminal-failure callback. */
    std::future<void>
    submitTask(std::function<void(core::MirageAccelerator &, Rng &)> task,
               TaskOptions opts);

    /**
     * Marks tile `tile` unhealthy as if it had just failed mid-job
     * (listeners fire, cooldown starts). Deterministic failure hook for
     * benches and tests; jobs already running on the tile finish first.
     */
    void failTile(int tile);

    /** Tiles currently marked healthy (in [0, config().tiles]). */
    int healthyTiles() const;

    /**
     * Registers a tile health listener, called as (tile, healthy) on every
     * transition — unhealthy on failure, healthy again on a successful
     * cooldown probe. Invoked without engine locks held, but possibly from
     * the dispatcher thread: listeners must not block on engine draining.
     * Returns an id for removeTileListener.
     */
    int addTileListener(std::function<void(int, bool)> listener);

    /** Unregisters a listener; unknown ids are ignored. */
    void removeTileListener(int id);

    /** Blocks until every submitted job has completed. */
    void drain();

    /** Jobs currently waiting in the queue (excludes in-flight jobs). */
    size_t queueDepth() const;

    /** Snapshot of the aggregate statistics. */
    RuntimeReport report() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace runtime
} // namespace mirage

#endif // MIRAGE_RUNTIME_ENGINE_H
