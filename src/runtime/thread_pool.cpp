#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdlib>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/logging.h"
#include "obs/metrics.h"

namespace mirage {
namespace runtime {

namespace {

/** Polite spin: keeps the core's pipeline from hammering the cache line
 *  while another thread updates it. Falls back to a scheduler yield off
 *  x86 (and after long spins, see spinWait). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

/** Spins until pred() holds: a short pause burst for the common
 *  sub-microsecond case, then scheduler yields so a single-core host (or
 *  an oversubscribed one) lets the thread we are waiting on run. */
template <typename Pred>
inline void
spinWait(Pred pred)
{
    for (int i = 0; i < 128; ++i) {
        if (pred())
            return;
        cpuRelax();
    }
    while (!pred())
        std::this_thread::yield();
}

int
defaultThreadCount()
{
    if (const char *env = std::getenv("MIRAGE_THREADS")) {
        std::string error;
        const int n = ThreadPool::parseThreadsEnv(env, &error);
        if (n >= 1)
            return n;
        // A mis-set MIRAGE_THREADS used to be silently ignored, which made
        // "MIRAGE_THREADS=8x" benchmark runs report hardware_concurrency
        // numbers as if they were 8-thread numbers. Be loud about it.
        MIRAGE_WARN("ignoring MIRAGE_THREADS=\"", env, "\" (", error,
                    "); falling back to hardware_concurrency");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex g_global_mu;

/**
 * The global pool is deliberately leaked: a static destructor would join
 * worker threads at exit(), which deadlocks in fork()ed children (gtest
 * death tests, daemonized tools) where those threads do not exist. The OS
 * reclaims everything at process exit anyway. The pointer is atomic so the
 * hot-path lookup never takes g_global_mu (workers holding a mutex across
 * fork() would deadlock children).
 */
std::atomic<ThreadPool *> g_global_pool{nullptr};

/**
 * Pools replaced by setGlobalThreads, shut down and retained for a grace
 * window (guarded by g_global_mu). A caller that grabbed
 * ThreadPool::global() before a swap may still hold the reference, so
 * deleting the old pool immediately was a use-after-free; a shut-down
 * pool is inert (serial parallelFor, inline submits) and costs only its
 * empty shell, so it is kept until kMaxRetiredPools further swaps have
 * completed. Each swap creates and joins worker threads (milliseconds),
 * while global() callers re-fetch the pointer per parallelFor call
 * (microseconds), so by the time a pool falls off the end of the list it
 * is fully quiesced: no live reference can plausibly span the window.
 * Callers that cache a global() reference across that many swaps are out
 * of contract — see the setGlobalThreads doc comment.
 */
std::vector<ThreadPool *> *g_retired_pools = nullptr;

/** Retired-pool count mirror for the obs gauge; updated under g_global_mu
 *  but readable without it. */
std::atomic<size_t> g_retired_count{0};

/** True in a fork()ed child of the process that created `pool_pid`. */
bool
inForkedChild(int64_t pool_pid)
{
#ifndef _WIN32
    return static_cast<int64_t>(getpid()) != pool_pid;
#else
    (void)pool_pid;
    return false;
#endif
}

int64_t
currentPid()
{
#ifndef _WIN32
    return static_cast<int64_t>(getpid());
#else
    return 0;
#endif
}

} // namespace

namespace detail {

bool
ForLoop::runBlocks()
{
    bool claimed = false;
    for (;;) {
        const int64_t b = next.fetch_add(1, std::memory_order_relaxed);
        if (b >= blocks)
            return claimed;
        claimed = true;
        // After a failure, stop executing bodies (mirroring the serial
        // path, which stops at the throw); blocks already in flight on
        // other threads still finish. Claimed blocks are still counted
        // so the caller wakes.
        if (!failed.load(std::memory_order_acquire)) {
            const int64_t begin = b * grain;
            const int64_t end = std::min(n, begin + grain);
            try {
                invoke(ctx, begin, end);
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_release);
            }
        }
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == blocks) {
            // Notify under the mutex so a waiting caller cannot miss the
            // final wakeup between its predicate check and wait.
            std::lock_guard<std::mutex> lk(mu);
            done_cv.notify_all();
        }
    }
}

} // namespace detail

ThreadPool::ThreadPool(int threads) : owner_pid_(currentPid())
{
    if (threads <= 0)
        threads = defaultThreadCount();
    size_.store(threads, std::memory_order_relaxed);
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    std::vector<std::thread> workers;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_ && workers_.empty())
            return; // idempotent
        stop_ = true;
        workers.swap(workers_);
    }
    // Degrade new parallelFor calls to the serial path immediately; the
    // exiting workers still drain anything already published.
    size_.store(0, std::memory_order_release);
    cv_.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ThreadPool::submitDetached(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!stop_) {
            tasks_.push_back(std::move(task));
            cv_.notify_one();
            return;
        }
    }
    // Shut-down pool (e.g. a stale reference to a replaced global pool):
    // run inline so the caller's future still completes. mu_ is already
    // released here so pool state cannot deadlock, but the task runs on
    // the *calling* thread — see the reentrancy note on submitDetached()
    // in the header.
    task();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        // Snapshot the wake epoch BEFORE scanning: if a loop is published
        // after this load, either the slot store is already visible to the
        // scan below (publish stores the slot before bumping the epoch
        // with release semantics) or the epoch comparison in the cv
        // predicate differs and we re-scan instead of sleeping.
        const uint64_t seen = wake_epoch_.load(std::memory_order_acquire);

        bool worked = true;
        while (worked) {
            worked = false;
            // Broadcast slots first — parallelFor is the latency-critical
            // path. One relaxed load per empty slot.
            for (LoopSlot &slot : slots_) {
                if (slot.loop.load(std::memory_order_relaxed) == nullptr)
                    continue;
                // Retirement handshake, worker half. This is a Dekker
                // pattern against runLoop's retirement (store loop=nullptr,
                // then load visitors): both sides must be seq_cst so that
                // at least one of them observes the other's write. With
                // plain release/acquire the caller could see visitors==0
                // before this increment became visible while we still see
                // the stale non-null pointer — and then dereference the
                // caller's already-destroyed stack-resident loop.
                slot.visitors.fetch_add(1, std::memory_order_seq_cst);
                detail::ForLoop *loop =
                    slot.loop.load(std::memory_order_seq_cst);
                if (loop != nullptr && loop->runBlocks())
                    worked = true;
                slot.visitors.fetch_sub(1, std::memory_order_release);
            }
            // Then the coarse task queue (engine shards, detached jobs).
            std::function<void()> task;
            {
                std::lock_guard<std::mutex> lk(mu_);
                if (!tasks_.empty()) {
                    task = std::move(tasks_.front());
                    tasks_.pop_front();
                }
            }
            if (task) {
                task();
                worked = true;
            }
        }

        std::unique_lock<std::mutex> lk(mu_);
        if (stop_ && tasks_.empty())
            return;
        cv_.wait(lk, [&] {
            return stop_ || !tasks_.empty() ||
                   wake_epoch_.load(std::memory_order_relaxed) != seen;
        });
        if (stop_ && tasks_.empty())
            return;
    }
}

void
ThreadPool::runLoop(detail::ForLoop &loop)
{
    // Threaded dispatches only — the serial fast path in parallelFor never
    // reaches here, so MIRAGE_THREADS=1 hot loops stay untouched. The
    // handle is resolved once (magic static); recording is one relaxed
    // fetch_add.
    static obs::Counter &loop_dispatches =
        obs::MetricsRegistry::global().counter("runtime.pool.loops");
    loop_dispatches.add(1);

    // Publish the loop in a free broadcast slot. No free slot (> kLoopSlots
    // concurrent parallelFors, i.e. deep nesting) is not an error: the
    // caller below simply runs every block itself, which is the same
    // deterministic decomposition.
    LoopSlot *slot = nullptr;
    for (LoopSlot &s : slots_) {
        detail::ForLoop *expected = nullptr;
        if (s.loop.compare_exchange_strong(expected, &loop,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
            slot = &s;
            break;
        }
    }
    if (slot != nullptr) {
        {
            // The epoch bump must happen under mu_: workers check it in
            // the cv predicate, and bumping outside the mutex could land
            // between a worker's predicate check and its sleep.
            std::lock_guard<std::mutex> lk(mu_);
            wake_epoch_.fetch_add(1, std::memory_order_release);
        }
        cv_.notify_all();
    }

    // The caller always participates — this is what makes nested
    // parallelFor deadlock-free regardless of worker availability.
    loop.runBlocks();

    // Wait for straggler blocks claimed by workers. The common case (the
    // caller ran the tail block) is already done; otherwise spin briefly —
    // blocks are microseconds — before paying for a cv sleep.
    if (loop.done.load(std::memory_order_acquire) != loop.blocks) {
        for (int i = 0;
             i < 256 &&
             loop.done.load(std::memory_order_acquire) != loop.blocks;
             ++i)
            cpuRelax();
        if (loop.done.load(std::memory_order_acquire) != loop.blocks) {
            std::unique_lock<std::mutex> lk(loop.mu);
            loop.done_cv.wait(lk, [&] {
                return loop.done.load(std::memory_order_acquire) ==
                       loop.blocks;
            });
        }
    }

    // Retire the slot: unpublish, then wait out any worker still inside
    // its visit window (it bumped visitors, may be about to load the
    // pointer). Only after visitors drains is the stack-resident loop safe
    // to destroy. The window is tiny: by now every block is done, so a
    // visiting worker's runBlocks returns after one fetch_add.
    //
    // Retirement handshake, caller half — the store and the load must be
    // seq_cst (Dekker pattern, see workerLoop): in the seq_cst total order
    // either a visiting worker's fetch_add precedes this store (then the
    // spin below sees visitors != 0 and waits for its matching
    // release-fetch_sub, which orders the worker's loop accesses before
    // our return) or this store precedes the fetch_add (then the worker's
    // seq_cst pointer re-load sees nullptr and never touches the loop).
    // With only release/acquire neither side is forced to see the other's
    // write and the worker can run a destroyed stack-resident loop.
    if (slot != nullptr) {
        slot->loop.store(nullptr, std::memory_order_seq_cst);
        spinWait([&] {
            return slot->visitors.load(std::memory_order_seq_cst) == 0;
        });
    }

    if (loop.error)
        std::rethrow_exception(loop.error);
}

bool
ThreadPool::runsSerially(int64_t blocks) const
{
    return size() <= 1 || blocks == 1 || detail::serial_scope_depth > 0 ||
           inForkedChild(owner_pid_);
}

ThreadPool &
ThreadPool::global()
{
    ThreadPool *pool = g_global_pool.load(std::memory_order_acquire);
    if (pool != nullptr)
        return *pool;
    std::lock_guard<std::mutex> lk(g_global_mu);
    pool = g_global_pool.load(std::memory_order_relaxed);
    if (pool == nullptr) {
        pool = new ThreadPool();
        g_global_pool.store(pool, std::memory_order_release);
    }
    return *pool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    ThreadPool *fresh = new ThreadPool(threads);
    ThreadPool *old = nullptr;
    {
        std::lock_guard<std::mutex> lk(g_global_mu);
        old = g_global_pool.load(std::memory_order_relaxed);
        g_global_pool.store(fresh, std::memory_order_release);
    }
    if (old != nullptr) {
        // Quiesce the replaced pool, then park it on the retired list for
        // a grace window instead of deleting it under a possibly live
        // reference. See g_retired_pools.
        old->shutdown();
        std::lock_guard<std::mutex> lk(g_global_mu);
        if (g_retired_pools == nullptr)
            g_retired_pools = new std::vector<ThreadPool *>();
        g_retired_pools->push_back(old);
        // Free the oldest shells beyond the cap: they were shut down
        // kMaxRetiredPools swaps ago (each swap spawns and joins threads),
        // so any in-contract reference to them has long since drained.
        while (g_retired_pools->size() > kMaxRetiredPools) {
            delete g_retired_pools->front();
            g_retired_pools->erase(g_retired_pools->begin());
        }
        g_retired_count.store(g_retired_pools->size(),
                              std::memory_order_relaxed);
    }
    obs::MetricsRegistry::global().gauge("runtime.retired_pools").set(
        static_cast<int64_t>(g_retired_count.load(std::memory_order_relaxed)));
}

size_t
ThreadPool::retiredPoolCount()
{
    return g_retired_count.load(std::memory_order_relaxed);
}

int
ThreadPool::parseThreadsEnv(const char *value, std::string *error)
{
    const auto fail = [&](const char *why) {
        if (error != nullptr)
            *error = why;
        return 0;
    };
    if (value == nullptr || *value == '\0')
        return fail("empty value");
    errno = 0;
    char *end = nullptr;
    const long n = std::strtol(value, &end, 10);
    if (end == value)
        return fail("not a number");
    while (*end == ' ' || *end == '\t')
        ++end;
    if (*end != '\0')
        return fail("trailing garbage after the number");
    if (errno == ERANGE || n > INT_MAX)
        return fail("out of range");
    if (n <= 0)
        return fail("thread count must be >= 1");
    return static_cast<int>(n);
}

} // namespace runtime
} // namespace mirage
