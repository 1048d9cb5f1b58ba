#ifndef MIRAGE_RUNTIME_THREAD_POOL_H
#define MIRAGE_RUNTIME_THREAD_POOL_H

/**
 * @file
 * Host-side execution resources for the simulator: a ThreadPool plus a
 * deterministic parallelFor. Mirage is a spatially parallel machine (many
 * MMVMUs operate simultaneously, paper Sec. IV/VI); the host simulator
 * mirrors that with data-parallel loops over independent rows, moduli and
 * tiles.
 *
 * Determinism contract: parallelFor always decomposes [0, n) into the same
 * fixed-grain blocks regardless of the worker count — including the serial
 * fast path — so callers that seed one Rng substream per row or block (see
 * Rng::split) produce bit-identical results at every thread count.
 *
 * Dispatch model: parallelFor does NOT push per-helper tasks through the
 * task queue. The loop descriptor lives on the caller's stack and is
 * broadcast through a lock-free slot array; workers discover it with one
 * atomic load and claim blocks straight off its counter. One mutex
 * acquisition and one notify_all per parallelFor call (to rouse sleeping
 * workers), zero heap allocations, no std::function on the threaded path.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>

#include "common/logging.h"
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace mirage {
namespace runtime {

namespace detail {

/**
 * Shared state of one parallelFor call. Lives on the caller's stack: the
 * caller clears its broadcast slot and waits out the last visiting worker
 * before returning, so a worker can never dereference a dead loop. The
 * body is a plain function pointer + context — no std::function, no heap.
 */
struct ForLoop
{
    int64_t n = 0;
    int64_t grain = 1;
    int64_t blocks = 0;
    void (*invoke)(void *, int64_t, int64_t) = nullptr;
    void *ctx = nullptr;

    /// `next` (hammered by every claim) and `done` (hammered by every
    /// completion) live on separate cache lines; sharing one line made
    /// each claim invalidate each completion and vice versa.
    alignas(64) std::atomic<int64_t> next{0};
    alignas(64) std::atomic<int64_t> done{0};

    std::atomic<bool> failed{false};
    std::mutex mu;
    std::condition_variable done_cv;
    std::exception_ptr error;

    /** Claims and runs blocks until none remain. Returns true when at
     *  least one block was claimed (lets idle workers distinguish real
     *  work from a drained loop awaiting retirement). */
    bool runBlocks();
};

/// Live SerialScope count on this thread.
inline thread_local int serial_scope_depth = 0;

} // namespace detail

/**
 * A fixed-size worker pool with broadcast loop dispatch plus a FIFO task
 * queue for coarse-grained futures (engine shards, detached jobs).
 *
 * parallelFor is cooperative: the calling thread claims blocks alongside
 * the workers, so nested parallelFor calls (e.g. an engine tile running a
 * row-parallel GEMM) can never deadlock — a caller that finds no free
 * broadcast slot, or whose workers are all busy, simply executes every
 * block itself.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; <= 0 picks the machine default
     *  (MIRAGE_THREADS env var when valid, else hardware_concurrency). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (0 after shutdown()). */
    int size() const { return size_.load(std::memory_order_relaxed); }

    /** Enqueues fire-and-forget work. On a pool that has been shut down
     *  the task runs inline on the calling thread instead — a stale
     *  reference to a replaced global pool degrades gracefully rather
     *  than deadlocking on workers that no longer exist.
     *
     *  Reentrancy hazard of that degradation: the inline task runs on the
     *  *calling* thread (after all pool-internal locks are released), so a
     *  caller that holds a lock the task also acquires self-deadlocks, and
     *  a caller that assumes the task runs asynchronously reenters its own
     *  code. Do not submit under locks the task may take, and do not rely
     *  on submit() returning before the task starts. */
    void submitDetached(std::function<void()> task);

    /** Enqueues a callable and returns a future for its result. Inherits
     *  submitDetached's shut-down-pool behavior: on a stopped pool the
     *  task runs inline on the calling thread before submit() returns (see
     *  the reentrancy note there). */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        submitDetached([task]() { (*task)(); });
        return fut;
    }

    /**
     * Runs body(begin, end) over the fixed-grain block decomposition of
     * [0, n): block b covers [b*grain, min(n, (b+1)*grain)). Blocks are
     * identical for every thread count (callers may derive a block id as
     * begin / grain). Blocks execute on the workers and the calling
     * thread; the call returns when all blocks have finished. The first
     * exception thrown by body is rethrown on the caller; blocks not yet
     * started when it was thrown are skipped (as in serial execution,
     * which stops at the throw), while blocks already in flight finish.
     *
     * A template so the body is captured as a function pointer + context
     * on this call's stack frame: the threaded dispatch path performs no
     * heap allocation and no std::function type erasure.
     */
    template <typename Body>
    void
    parallelFor(int64_t n, int64_t grain, Body &&body)
    {
        if (n <= 0)
            return;
        MIRAGE_ASSERT(grain >= 1, "parallelFor grain must be >= 1");
        const int64_t blocks = (n + grain - 1) / grain;
        if (runsSerially(blocks)) {
            for (int64_t b = 0; b < blocks; ++b)
                body(b * grain, std::min(n, (b + 1) * grain));
            return;
        }
        using B = std::remove_reference_t<Body>;
        detail::ForLoop loop;
        loop.n = n;
        loop.grain = grain;
        loop.blocks = blocks;
        loop.ctx =
            const_cast<void *>(static_cast<const void *>(std::addressof(body)));
        loop.invoke = [](void *ctx, int64_t begin, int64_t end) {
            (*static_cast<B *>(ctx))(begin, end);
        };
        runLoop(loop);
    }

    /**
     * True when a loop of `blocks` blocks would take the serial fast path
     * (single worker, single block, a fork()ed child, a pool that has been
     * shut down, or a SerialScope alive on the calling thread). The serial
     * path is inline and allocation-free.
     */
    bool runsSerially(int64_t blocks) const;

    /**
     * Joins the workers and drains the task queue. Afterwards size() == 0:
     * parallelFor degrades to the serial path and submitDetached runs
     * tasks inline, so stale references stay usable forever. Idempotent.
     */
    void shutdown();

    /**
     * The process-wide pool used by the parallelized GEMM hot paths.
     * Created on first use, sized by MIRAGE_THREADS when set, else
     * hardware_concurrency.
     */
    static ThreadPool &global();

    /**
     * Replaces the global pool with one of `threads` workers. The old pool
     * is shut down (workers join, queue drains) and then *retired*: a
     * thread that grabbed `ThreadPool::global()` before the swap may still
     * hold the reference, and deleting the object under it would be a
     * use-after-free. A retired pool is inert — parallelFor runs serially,
     * submits run inline — so stale references stay safe.
     *
     * Retired shells (mutex, empty task deque, slot array — a few KiB;
     * the worker threads themselves are joined) are kept for a grace
     * window of kMaxRetiredPools subsequent swaps and then freed, so the
     * list no longer grows without bound. Contract: a cached global()
     * reference must not be used across kMaxRetiredPools or more
     * setGlobalThreads calls — code that re-fetches global() per call
     * (runtime::parallelFor and every hot path in this library) is always
     * in contract. The retired count is exported as the obs gauge
     * `runtime.retired_pools`. This API is for benchmark/test sweeps over
     * thread counts — do not call it from steady-state production loops.
     */
    static void setGlobalThreads(int threads);

    /// Retired shells kept after a setGlobalThreads swap (grace window).
    static constexpr size_t kMaxRetiredPools = 8;

    /** Current number of retained retired pools. Exposed for tests. */
    static size_t retiredPoolCount();

    /**
     * Parses a MIRAGE_THREADS-style string. Returns the thread count for a
     * valid positive integer; returns 0 and fills *error (when non-null)
     * for empty, non-numeric, trailing-junk, zero/negative, or
     * out-of-range values. Exposed for unit tests.
     */
    static int parseThreadsEnv(const char *value, std::string *error = nullptr);

  private:
    /** One broadcast slot: a published loop plus a visitor count that
     *  keeps retirement safe (a worker bumps visitors before touching the
     *  loop; the caller clears the pointer and waits for visitors == 0
     *  before its stack frame dies). Both fields are line-padded — they
     *  are the only cross-thread traffic on the dispatch fast path. */
    struct LoopSlot
    {
        alignas(64) std::atomic<detail::ForLoop *> loop{nullptr};
        alignas(64) std::atomic<int> visitors{0};
    };
    /// Concurrent parallelFor calls beyond this nest depth run caller-only
    /// (still correct and deterministic, just not accelerated).
    static constexpr int kLoopSlots = 8;

    void workerLoop();
    /** Publishes `loop`, participates, waits for completion, retires the
     *  slot, rethrows the first body exception. */
    void runLoop(detail::ForLoop &loop);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_;
    std::vector<std::thread> workers_;
    LoopSlot slots_[kLoopSlots];
    /// Bumped (under mu_) whenever a loop is published so sleeping workers
    /// re-scan the slots; the cv predicate compares against it.
    std::atomic<uint64_t> wake_epoch_{0};
    /// Worker count; atomic so runsSerially/shutdown need no lock.
    std::atomic<int> size_{0};
    bool stop_ = false;
    /// Pid at construction: fork()ed children (e.g. gtest death tests) do
    /// not inherit the workers, so parallelFor runs serially there.
    int64_t owner_pid_ = 0;
};

/**
 * parallelFor on the global pool — the hot-path entry point. Both paths
 * are allocation-free: the serial fast path (one worker, one block,
 * fork()ed child) invokes the body directly, and the threaded path hands
 * the pool a stack-resident loop descriptor (see ThreadPool::parallelFor).
 * That is what keeps warm kernels allocation-free at every thread count
 * (see tests/test_alloc_guard.cpp). The block decomposition is identical
 * on every path, preserving the determinism contract above.
 */
template <typename Body>
inline void
parallelFor(int64_t n, int64_t grain, Body &&body)
{
    if (n <= 0)
        return;
    MIRAGE_ASSERT(grain >= 1, "parallelFor grain must be >= 1");
    const int64_t blocks = (n + grain - 1) / grain;
    ThreadPool &pool = ThreadPool::global();
    if (pool.runsSerially(blocks)) {
        for (int64_t b = 0; b < blocks; ++b)
            body(b * grain, std::min(n, (b + 1) * grain));
        return;
    }
    pool.parallelFor(n, grain, std::forward<Body>(body));
}

/**
 * While alive, every parallelFor called on this thread runs inline on the
 * serial fast path, over the same block decomposition, so results are
 * unchanged. Meant for a thread that is one of several concurrent legs of
 * an outer loop, whose inner forks would only compete with the other legs
 * for the same workers. Scopes nest.
 */
class SerialScope
{
  public:
    SerialScope() { ++detail::serial_scope_depth; }
    ~SerialScope() { --detail::serial_scope_depth; }
    SerialScope(const SerialScope &) = delete;
    SerialScope &operator=(const SerialScope &) = delete;
};

/**
 * Returns `grain` when `work` (an approximate per-call operation count) is
 * worth farming out, else `n` — which collapses the loop into one block so
 * parallelFor takes its zero-synchronization serial path. Safe wherever
 * results do not depend on the block decomposition: rng-free loops, or
 * per-item Rng::stream substreams (every parallel hot path in this
 * library qualifies).
 */
inline int64_t
serialBelow(int64_t n, int64_t grain, int64_t work, int64_t min_work)
{
    return work < min_work ? n : grain;
}

} // namespace runtime
} // namespace mirage

#endif // MIRAGE_RUNTIME_THREAD_POOL_H
