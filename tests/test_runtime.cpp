/**
 * @file
 * Runtime subsystem tests: ThreadPool / parallelFor semantics, Rng::split
 * stream independence, RuntimeEngine job futures, GEMM batching and row
 * sharding, queue backpressure, and the engine's bit-identical-to-serial
 * guarantee for GEMM and inference jobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bfp/bfp_gemm.h"
#include "core/mirage.h"
#include "fault/injection.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/thread_pool.h"
#include "test_support.h"

namespace {

using namespace mirage;

/** Restores the global pool to the machine default when a test exits. */
struct GlobalThreadsGuard
{
    explicit GlobalThreadsGuard(int threads)
    {
        runtime::ThreadPool::setGlobalThreads(threads);
    }
    ~GlobalThreadsGuard() { runtime::ThreadPool::setGlobalThreads(0); }
};

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsFutureResult)
{
    runtime::ThreadPool pool(4);
    std::future<int> f = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    runtime::ThreadPool pool(4);
    const int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, 7, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForBlockDecompositionIsThreadCountInvariant)
{
    // Blocks must be [b*grain, min(n, (b+1)*grain)) regardless of workers.
    auto blocksOf = [](runtime::ThreadPool &pool, int64_t n, int64_t grain) {
        std::mutex mu;
        std::set<std::pair<int64_t, int64_t>> blocks;
        pool.parallelFor(n, grain, [&](int64_t b, int64_t e) {
            std::lock_guard<std::mutex> lk(mu);
            blocks.insert({b, e});
        });
        return blocks;
    };
    runtime::ThreadPool serial(1), wide(8);
    EXPECT_EQ(blocksOf(serial, 103, 10), blocksOf(wide, 103, 10));
    EXPECT_EQ(blocksOf(serial, 8, 16), blocksOf(wide, 8, 16));
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges)
{
    runtime::ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, 4, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, 4, [&](int64_t b, int64_t e) {
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 1);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    runtime::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64, 1,
                                  [&](int64_t b, int64_t) {
                                      if (b == 13)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    runtime::ThreadPool pool(2); // fewer workers than outer blocks
    std::atomic<int64_t> sum{0};
    pool.parallelFor(8, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
            pool.parallelFor(16, 4, [&](int64_t ib, int64_t ie) {
                sum.fetch_add(ie - ib);
            });
        }
    });
    EXPECT_EQ(sum.load(), 8 * 16);
}

TEST(ThreadPool, DeeplyNestedParallelForSaturatesBroadcastSlotsSafely)
{
    // Three levels of nesting from every outer block: far more concurrent
    // loops than broadcast slots. Loops that find no free slot must run
    // caller-only and still cover every index exactly once.
    runtime::ThreadPool pool(4);
    std::atomic<int64_t> sum{0};
    pool.parallelFor(6, 1, [&](int64_t, int64_t) {
        pool.parallelFor(6, 1, [&](int64_t, int64_t) {
            pool.parallelFor(12, 3, [&](int64_t ib, int64_t ie) {
                sum.fetch_add(ie - ib);
            });
        });
    });
    EXPECT_EQ(sum.load(), 6 * 6 * 12);
}

TEST(ThreadPool, ExceptionsPropagateToTheRightCallerUnderContention)
{
    // Many external threads run parallelFor on one pool at once; odd
    // callers throw. Each caller must observe exactly its own outcome:
    // throwers get their exception, the rest complete every index.
    runtime::ThreadPool pool(4);
    const int callers = 12;
    std::vector<std::thread> threads;
    std::vector<int> outcome(callers, -1); // 0 = clean, 1 = caught
    std::vector<int64_t> covered(callers, 0);
    for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            for (int rep = 0; rep < 20; ++rep) {
                // Atomic: blocks of one loop run concurrently on the
                // caller and the workers, so a plain accumulator would be
                // a data race in the test body itself.
                std::atomic<int64_t> local{0};
                try {
                    pool.parallelFor(64, 4, [&](int64_t b, int64_t e) {
                        if (c % 2 == 1 && b == 32)
                            throw std::runtime_error("caller " +
                                                     std::to_string(c));
                        local.fetch_add(e - b);
                    });
                    outcome[static_cast<size_t>(c)] = 0;
                    covered[static_cast<size_t>(c)] = local.load();
                } catch (const std::runtime_error &e) {
                    outcome[static_cast<size_t>(c)] = 1;
                    // The exception must be this caller's own, not one
                    // leaked across loops sharing the pool.
                    EXPECT_EQ(std::string(e.what()),
                              "caller " + std::to_string(c));
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (int c = 0; c < callers; ++c) {
        EXPECT_EQ(outcome[static_cast<size_t>(c)], c % 2) << "caller " << c;
        if (c % 2 == 0) {
            EXPECT_EQ(covered[static_cast<size_t>(c)], 64) << "caller " << c;
        }
    }
}

TEST(ThreadPool, ShortLoopRetirementIsRaceFreeUnderContention)
{
    // Regression test for a store-buffer (Dekker) race in slot retirement:
    // runLoop stored loop=nullptr and spin-waited on visitors==0 with only
    // release/acquire ordering, so the caller could observe visitors==0
    // before a worker's fetch_add became visible while that worker still
    // saw the stale non-null pointer — and then ran blocks of a ForLoop
    // whose stack frame was already destroyed. Both halves of the
    // handshake are now seq_cst. Hammer the window: many caller threads
    // issue the shortest possible broadcast loops (2 blocks — the caller
    // usually drains both itself, so retirement races a worker that is
    // mid-visit with no blocks left) against workers that are constantly
    // rescanning because every other slot is churning too. Each loop's
    // accumulator lives on the caller's stack next to the ForLoop, so a
    // late worker touching a retired loop is a use-after-free that TSan
    // and ASan both catch.
    runtime::ThreadPool pool(4);
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
        callers.emplace_back([&] {
            for (int rep = 0; rep < 3000; ++rep) {
                std::atomic<int64_t> sum{0};
                pool.parallelFor(2, 1, [&](int64_t b, int64_t e) {
                    sum.fetch_add(e - b);
                });
                ASSERT_EQ(sum.load(), 2);
            }
        });
    }
    for (auto &t : callers)
        t.join();
}

TEST(ThreadPool, SetGlobalThreadsWhileOtherThreadsUseTheGlobalPool)
{
    // Regression test for a latent use-after-free: setGlobalThreads used
    // to delete the old pool while another thread could still hold the
    // ThreadPool::global() reference. Retired pools are now kept alive
    // for a kMaxRetiredPools-swap grace window (inert: serial
    // parallelFor, inline submits), so hammering the global pool while
    // it is being replaced must be clean under ThreadSanitizer/
    // AddressSanitizer. The concurrent phase performs exactly
    // kMaxRetiredPools swaps: any pool a user could reference stays in
    // the grace window for the whole phase (cap evictions during the
    // phase only hit pools retired before the users started), so the
    // test exercises the original race without depending on the
    // quiescence argument that justifies the eventual delete.
    std::atomic<bool> stop{false};
    std::vector<std::thread> users;
    for (int u = 0; u < 3; ++u) {
        users.emplace_back([&] {
            while (!stop.load()) {
                runtime::ThreadPool &pool = runtime::ThreadPool::global();
                std::atomic<int64_t> sum{0};
                pool.parallelFor(64, 4, [&](int64_t b, int64_t e) {
                    sum.fetch_add(e - b);
                });
                EXPECT_EQ(sum.load(), 64);
                pool.submit([] { return 1; }).get();
            }
        });
    }
    for (size_t swap = 0; swap < runtime::ThreadPool::kMaxRetiredPools;
         ++swap)
        runtime::ThreadPool::setGlobalThreads(1 + static_cast<int>(swap % 4));
    stop.store(true);
    for (auto &t : users)
        t.join();
    runtime::ThreadPool::setGlobalThreads(0);
}

TEST(ThreadPool, RetiredPoolListIsCappedAndOldestFreed)
{
    // The retired list must not grow without bound: a long-lived process
    // that retunes its thread count (serve reconfigurations, bench
    // sweeps) retires a pool per call, and before the cap each shell —
    // mutexes, condvars, empty deques — leaked for the process lifetime.
    // After every swap the list holds at most kMaxRetiredPools shells,
    // the runtime.retired_pools gauge agrees, and the current pool still
    // dispatches work.
    using runtime::ThreadPool;
    for (size_t swap = 0; swap < 3 * ThreadPool::kMaxRetiredPools; ++swap) {
        ThreadPool::setGlobalThreads(1 + static_cast<int>(swap % 3));
        EXPECT_LE(ThreadPool::retiredPoolCount(),
                  ThreadPool::kMaxRetiredPools);
        std::atomic<int64_t> sum{0};
        ThreadPool::global().parallelFor(32, 4, [&](int64_t b, int64_t e) {
            sum.fetch_add(e - b);
        });
        EXPECT_EQ(sum.load(), 32);
    }
    EXPECT_EQ(ThreadPool::retiredPoolCount(),
              ThreadPool::kMaxRetiredPools);
    const obs::Gauge *gauge = obs::MetricsRegistry::global().findGauge(
        "runtime.retired_pools");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value(),
              static_cast<int64_t>(ThreadPool::retiredPoolCount()));
    ThreadPool::setGlobalThreads(0);
}

TEST(ThreadPool, ShutdownDegradesToSerialButStaysUsable)
{
    runtime::ThreadPool pool(4);
    pool.shutdown();
    EXPECT_EQ(pool.size(), 0);
    int64_t sum = 0;
    pool.parallelFor(32, 4, [&](int64_t b, int64_t e) { sum += e - b; });
    EXPECT_EQ(sum, 32);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
    pool.shutdown(); // idempotent
}

TEST(ThreadPool, SerialScopeRunsLoopsInlineOverTheSameBlocks)
{
    runtime::ThreadPool pool(4);
    EXPECT_FALSE(pool.runsSerially(8));
    std::vector<std::pair<int64_t, int64_t>> blocks;
    {
        runtime::SerialScope outer;
        {
            runtime::SerialScope inner; // scopes nest
        }
        EXPECT_TRUE(pool.runsSerially(8));
        // The scope belongs to the thread that opened it.
        bool other_serial = true;
        std::thread([&] { other_serial = pool.runsSerially(8); }).join();
        EXPECT_FALSE(other_serial);

        const std::thread::id caller = std::this_thread::get_id();
        pool.parallelFor(103, 10, [&](int64_t b, int64_t e) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            blocks.emplace_back(b, e);
        });
    }
    EXPECT_FALSE(pool.runsSerially(8));
    ASSERT_EQ(blocks.size(), 11u);
    for (size_t i = 0; i < blocks.size(); ++i) {
        const int64_t b = 10 * static_cast<int64_t>(i);
        EXPECT_EQ(blocks[i], std::make_pair(b, std::min<int64_t>(103, b + 10)));
    }
}

TEST(ThreadPool, ParseThreadsEnvAcceptsOnlyPositiveIntegers)
{
    using runtime::ThreadPool;
    EXPECT_EQ(ThreadPool::parseThreadsEnv("1"), 1);
    EXPECT_EQ(ThreadPool::parseThreadsEnv("8"), 8);
    EXPECT_EQ(ThreadPool::parseThreadsEnv(" 16 "), 16);

    std::string error;
    for (const char *bad : {"", "abc", "4x", "x4", "0", "-3", "3.5",
                            "99999999999999999999", "  "}) {
        error.clear();
        EXPECT_EQ(ThreadPool::parseThreadsEnv(bad, &error), 0) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// ---------------------------------------------------------------------------
// Rng::split
// ---------------------------------------------------------------------------

TEST(RngSplit, StreamsAreDeterministicAndDistinct)
{
    Rng root(1234);
    Rng a = root.split(0);
    Rng b = root.split(1);
    Rng a_again = Rng(1234).split(0);
    EXPECT_EQ(a.nextU64(), a_again.nextU64());
    EXPECT_NE(a.nextU64(), b.nextU64());
    EXPECT_NE(Rng(1234).split(0).nextU64(), Rng(1235).split(0).nextU64());
}

TEST(RngSplit, SplitIgnoresParentConsumptionState)
{
    Rng root(77);
    const uint64_t before = root.split(5).nextU64();
    root.nextU64();
    root.gaussian();
    const uint64_t after = root.split(5).nextU64();
    EXPECT_EQ(before, after);
}

TEST(RngSplit, ChildStreamsLookIndependent)
{
    // Means of distinct substreams should scatter around 0.5.
    Rng root(99);
    double grand = 0.0;
    for (uint64_t s = 0; s < 16; ++s) {
        Rng child = root.split(s);
        double mean = 0.0;
        for (int i = 0; i < 256; ++i)
            mean += child.uniformReal();
        grand += mean / 256.0;
    }
    EXPECT_NEAR(grand / 16.0, 0.5, 0.05);
}

// ---------------------------------------------------------------------------
// RuntimeEngine
// ---------------------------------------------------------------------------

runtime::GemmRequest
makeRequest(Rng &rng, int m, int k, int n)
{
    runtime::GemmRequest req;
    req.m = m;
    req.k = k;
    req.n = n;
    req.a = mirage::test::gaussianVector(rng, static_cast<size_t>(m) * k);
    req.b = mirage::test::gaussianVector(rng, static_cast<size_t>(k) * n);
    return req;
}

class RuntimeEngineTest : public mirage::test::SeededTest
{
};

TEST_F(RuntimeEngineTest, InvalidConfigurationsThrowWithClearMessages)
{
    const auto message = [](auto make_config) -> std::string {
        try {
            runtime::RuntimeEngine engine(make_config());
        } catch (const std::invalid_argument &e) {
            return e.what();
        }
        return "";
    };

    for (int tiles : {0, -1, -7}) {
        const std::string what = message([tiles] {
            runtime::EngineConfig cfg;
            cfg.tiles = tiles;
            return cfg;
        });
        EXPECT_NE(what.find("tiles"), std::string::npos) << what;
    }
    EXPECT_NE(message([] {
                  runtime::EngineConfig cfg;
                  cfg.queue_capacity = 0;
                  return cfg;
              }).find("queue_capacity"),
              std::string::npos);
    for (int max_batch : {0, -3}) {
        const std::string what = message([max_batch] {
            runtime::EngineConfig cfg;
            cfg.max_batch = max_batch;
            return cfg;
        });
        EXPECT_NE(what.find("max_batch"), std::string::npos) << what;
    }

    // validate() is also callable directly and passes on the defaults.
    EXPECT_NO_THROW(runtime::EngineConfig{}.validate());
    runtime::EngineConfig bad;
    bad.tiles = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST_F(RuntimeEngineTest, GemmJobMatchesDirectAcceleratorCall)
{
    runtime::EngineConfig cfg;
    cfg.tiles = 2;
    runtime::RuntimeEngine engine(cfg);

    runtime::GemmRequest req = makeRequest(rng, 13, 32, 5);
    const runtime::GemmRequest copy = req;
    std::future<runtime::GemmResult> fut = engine.submitGemm(std::move(req));

    core::MirageAccelerator direct;
    const std::vector<float> expect =
        direct.gemm(copy.a, copy.b, copy.m, copy.k, copy.n);

    const runtime::GemmResult res = fut.get();
    ASSERT_EQ(res.c.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(res.c[i], expect[i]) << "element " << i;
    EXPECT_GT(res.latency_s, 0.0);
    EXPECT_GE(res.shards, 1);
}

TEST_F(RuntimeEngineTest, ParallelShardedResultsAreBitIdenticalToSerial)
{
    // The same jobs through (1 tile, 1 thread) and (4 tiles, 8 threads)
    // must produce byte-identical outputs.
    std::vector<runtime::GemmRequest> reqs;
    for (int i = 0; i < 6; ++i)
        reqs.push_back(makeRequest(rng, 9 + 3 * i, 32, 6));

    auto runAll = [&](int tiles, int threads) {
        GlobalThreadsGuard guard(threads);
        runtime::EngineConfig cfg;
        cfg.tiles = tiles;
        cfg.max_batch = 3;
        runtime::RuntimeEngine engine(cfg);
        std::vector<std::future<runtime::GemmResult>> futs;
        for (const auto &r : reqs)
            futs.push_back(engine.submitGemm(r));
        std::vector<std::vector<float>> out;
        for (auto &f : futs)
            out.push_back(f.get().c);
        return out;
    };

    const auto serial = runAll(1, 1);
    const auto parallel = runAll(4, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t j = 0; j < serial.size(); ++j) {
        ASSERT_EQ(serial[j].size(), parallel[j].size());
        for (size_t i = 0; i < serial[j].size(); ++i)
            EXPECT_EQ(serial[j][i], parallel[j][i])
                << "job " << j << " element " << i;
    }
}

TEST_F(RuntimeEngineTest, InferenceAndTrainingJobsMatchDirectEstimates)
{
    runtime::RuntimeEngine engine;
    const models::ModelShape net = models::alexNet();
    auto inf = engine.submitInference(net, 16);
    auto trn = engine.submitTraining(net, 16);

    core::MirageAccelerator direct;
    const core::PerformanceReport inf_direct = direct.estimateInference(net, 16);
    const core::PerformanceReport trn_direct = direct.estimateTraining(net, 16);

    const core::PerformanceReport inf_res = inf.get();
    const core::PerformanceReport trn_res = trn.get();
    EXPECT_EQ(inf_res.time_s, inf_direct.time_s);
    EXPECT_EQ(inf_res.macs, inf_direct.macs);
    EXPECT_EQ(inf_res.energy_j, inf_direct.energy_j);
    EXPECT_EQ(trn_res.time_s, trn_direct.time_s);
    EXPECT_EQ(trn_res.macs, trn_direct.macs);
    EXPECT_EQ(trn_res.edp, trn_direct.edp);
    inf_res.validateUnits();
    trn_res.validateUnits();
}

TEST_F(RuntimeEngineTest, PerJobStatsAddUp)
{
    runtime::EngineConfig cfg;
    cfg.tiles = 2;
    runtime::RuntimeEngine engine(cfg);

    const int jobs = 5, m = 8, k = 16, n = 4;
    std::vector<std::future<runtime::GemmResult>> futs;
    for (int j = 0; j < jobs; ++j)
        futs.push_back(engine.submitGemm(makeRequest(rng, m, k, n)));
    auto inf = engine.submitInference(models::transformer(), 8);
    double latency_sum = 0.0;
    for (auto &f : futs)
        latency_sum += f.get().latency_s;
    inf.get();
    engine.drain();

    const runtime::RuntimeReport rep = engine.report();
    EXPECT_EQ(rep.jobs_submitted, static_cast<uint64_t>(jobs) + 1);
    EXPECT_EQ(rep.jobs_completed, static_cast<uint64_t>(jobs) + 1);
    EXPECT_EQ(rep.gemm_jobs, static_cast<uint64_t>(jobs));
    EXPECT_EQ(rep.inference_jobs, 1u);
    EXPECT_EQ(rep.gemm_macs, static_cast<int64_t>(jobs) * m * k * n);
    EXPECT_GE(rep.batches_dispatched, 1u);
    EXPECT_LE(rep.batches_dispatched, static_cast<uint64_t>(jobs));
    EXPECT_GT(rep.total_latency_s, 0.0);
    // Futures observe per-job latency at a slightly earlier timestamp than
    // the engine's aggregate, so the sum is a lower bound.
    EXPECT_LE(latency_sum, rep.total_latency_s + 1e-6);
    EXPECT_GT(rep.wall_time_s, 0.0);
    EXPECT_GE(rep.utilization(), 0.0);
    EXPECT_LE(rep.utilization(), 1.0 + 1e-9);
    EXPECT_GT(rep.throughputMacsPerSecond(), 0.0);
    EXPECT_GT(rep.avgLatencySeconds(), 0.0);
    EXPECT_GE(rep.max_latency_s, rep.avgLatencySeconds());
}

TEST_F(RuntimeEngineTest, CompatibleGemmJobsAreBatched)
{
    runtime::EngineConfig cfg;
    cfg.tiles = 2;
    cfg.max_batch = 4;
    cfg.queue_capacity = 32;
    runtime::RuntimeEngine engine(cfg);

    // Hold the dispatcher on a gate so all GEMM jobs are queued before any
    // dispatch decision is made, then count dispatch groups.
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    auto gate_job = engine.submitTask(
        [opened](core::MirageAccelerator &, Rng &) { opened.wait(); });

    std::vector<std::future<runtime::GemmResult>> futs;
    for (int j = 0; j < 8; ++j)
        futs.push_back(engine.submitGemm(makeRequest(rng, 6, 16, 4)));
    gate.set_value();
    for (auto &f : futs)
        f.get();
    gate_job.get();
    engine.drain();

    const runtime::RuntimeReport rep = engine.report();
    EXPECT_EQ(rep.gemm_jobs, 8u);
    EXPECT_EQ(rep.batches_dispatched, 2u); // 8 jobs fused 4 at a time
    EXPECT_EQ(rep.largest_batch, 4u);
}

TEST_F(RuntimeEngineTest, ConcurrentTileLegsRunTheirGemmsInline)
{
    if (!obs::enabled())
        GTEST_SKIP() << "needs the runtime.pool.loops counter (MIRAGE_OBS)";
    GlobalThreadsGuard guard(4);
    obs::Counter &loops =
        obs::MetricsRegistry::global().counter("runtime.pool.loops");
    // On its own, each of these GEMMs forks a row loop onto the pool: it
    // does exactly bfpGemm's fork cutoff of MACs.
    const int m = 64, k = 64;
    const int n = static_cast<int>(bfp::kMinComputeWork / (m * k));
    ASSERT_EQ(int64_t{m} * k * n, bfp::kMinComputeWork);
    std::vector<runtime::GemmRequest> reqs;
    for (int j = 0; j < 4; ++j)
        reqs.push_back(makeRequest(rng, m, k, n));
    uint64_t before = loops.value();
    core::MirageAccelerator accel;
    const std::vector<float> direct = accel.gemm(reqs[0].a, reqs[0].b, m, k, n);
    ASSERT_GT(loops.value(), before);

    runtime::EngineConfig cfg;
    cfg.tiles = 2;
    cfg.max_batch = 4;
    runtime::RuntimeEngine engine(cfg);
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    auto gate_job = engine.submitTask(
        [opened](core::MirageAccelerator &, Rng &) { opened.wait(); });
    std::vector<std::future<runtime::GemmResult>> futs;
    for (const runtime::GemmRequest &r : reqs)
        futs.push_back(engine.submitGemm(r));
    before = loops.value();
    gate.set_value();
    std::vector<std::vector<float>> out;
    for (auto &f : futs)
        out.push_back(f.get().c);
    gate_job.get();
    engine.drain();

    // One fused group over two tiles: the loop over the tile legs is the
    // only threaded dispatch, and the results are unchanged.
    const runtime::RuntimeReport rep = engine.report();
    EXPECT_EQ(rep.batches_dispatched, 1u);
    EXPECT_EQ(loops.value() - before, 1u);
    EXPECT_EQ(out[0], direct);
}

TEST_F(RuntimeEngineTest, FullQueueBlocksSubmissionUntilSpaceFrees)
{
    runtime::EngineConfig cfg;
    cfg.tiles = 1;
    cfg.queue_capacity = 2;
    runtime::RuntimeEngine engine(cfg);

    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    auto gate_job = engine.submitTask(
        [opened](core::MirageAccelerator &, Rng &) { opened.wait(); });
    // Fill the queue behind the in-flight gate job.
    auto q1 = engine.submitTask([](core::MirageAccelerator &, Rng &) {});
    auto q2 = engine.submitTask([](core::MirageAccelerator &, Rng &) {});
    ASSERT_EQ(engine.queueDepth(), 2u);

    std::atomic<bool> third_submitted{false};
    std::thread producer([&] {
        auto q3 = engine.submitTask([](core::MirageAccelerator &, Rng &) {});
        third_submitted.store(true);
        q3.get();
    });

    // The producer must be stuck in submitTask while the queue is full.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(third_submitted.load());
    EXPECT_EQ(engine.queueDepth(), 2u);

    gate.set_value();
    producer.join();
    EXPECT_TRUE(third_submitted.load());
    gate_job.get();
    q1.get();
    q2.get();
    engine.drain();
    const runtime::RuntimeReport rep = engine.report();
    EXPECT_EQ(rep.task_jobs, 4u);
    EXPECT_EQ(rep.max_queue_depth, 2u);
}

TEST_F(RuntimeEngineTest, PerTileRngStreamsAreDeterministicAndDistinct)
{
    runtime::EngineConfig cfg;
    cfg.tiles = 2;
    cfg.seed = 4321;
    auto firstDrawPerTile = [&cfg]() {
        runtime::RuntimeEngine engine(cfg);
        std::vector<uint64_t> draws;
        std::mutex mu;
        std::vector<std::future<void>> futs;
        // Tasks round-robin over tiles, so two tasks touch both tiles.
        for (int t = 0; t < cfg.tiles; ++t) {
            futs.push_back(engine.submitTask(
                [&](core::MirageAccelerator &, Rng &tile_rng) {
                    std::lock_guard<std::mutex> lk(mu);
                    draws.push_back(tile_rng.split(0).nextU64());
                }));
        }
        for (auto &f : futs)
            f.get();
        return draws;
    };
    const std::vector<uint64_t> run1 = firstDrawPerTile();
    const std::vector<uint64_t> run2 = firstDrawPerTile();
    ASSERT_EQ(run1.size(), 2u);
    EXPECT_EQ(run1, run2);       // deterministic across engine instances
    EXPECT_NE(run1[0], run1[1]); // distinct across tiles
}

TEST_F(RuntimeEngineTest, ThrowingTaskDeliversExceptionThroughFuture)
{
    runtime::RuntimeEngine engine;
    auto bad = engine.submitTask([](core::MirageAccelerator &, Rng &) {
        throw std::runtime_error("job failed");
    });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The dispatcher must survive a throwing job and keep serving.
    auto ok = engine.submitGemm(makeRequest(rng, 4, 16, 4));
    EXPECT_EQ(ok.get().c.size(), 4u * 4u);
    engine.drain();
    EXPECT_EQ(engine.report().jobs_completed, 2u);
}

TEST_F(RuntimeEngineTest, DestructorDrainsOutstandingJobs)
{
    std::future<runtime::GemmResult> fut;
    {
        runtime::RuntimeEngine engine;
        fut = engine.submitGemm(makeRequest(rng, 12, 16, 4));
    } // destructor must complete the job, not abandon the promise
    EXPECT_EQ(fut.get().c.size(), 12u * 4u);
}

// ---------------------------------------------------------------------------
// RuntimeEngine tile failover
// ---------------------------------------------------------------------------

/** Disarms the fault registry around a test body so injected schedules
 *  cannot leak between tests (or in from MIRAGE_FAULT). */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard() { fault::reset(); }
};

TEST_F(RuntimeEngineTest, GemmResultsAreBitIdenticalAcrossInjectedFailover)
{
    // A GEMM whose first dispatch loses a tile mid-group must retry on
    // the survivors and still produce byte-identical output: re-sharding
    // rewrites the result buffers wholesale, and per-element math is
    // shard-shape independent.
    FaultGuard guard;
    runtime::GemmRequest req = makeRequest(rng, 24, 32, 8);

    const auto runOnce = [&](bool inject) {
        runtime::EngineConfig cfg;
        cfg.tiles = 4;
        runtime::RuntimeEngine engine(cfg);
        if (inject)
            fault::armPoint("engine.tile_fail", fault::FaultSpec::hit(1));
        const std::vector<float> c = engine.submitGemm(req).get().c;
        fault::reset();
        if (inject) {
            EXPECT_EQ(engine.healthyTiles(), 3);
            EXPECT_GE(engine.report().tile_failures, 1u);
            EXPECT_GE(engine.report().job_retries, 1u);
        }
        return c;
    };

    const std::vector<float> clean = runOnce(false);
    const std::vector<float> failover = runOnce(true);
    ASSERT_EQ(clean.size(), failover.size());
    for (size_t i = 0; i < clean.size(); ++i)
        EXPECT_EQ(clean[i], failover[i]) << "element " << i;
}

TEST_F(RuntimeEngineTest, FailTilePublishesListenerEventsAndCooldownRejoins)
{
    FaultGuard guard;
    runtime::EngineConfig cfg;
    cfg.tiles = 3;
    cfg.tile_cooldown_dispatches = 2;
    runtime::RuntimeEngine engine(cfg);

    std::mutex mu;
    std::vector<std::pair<int, bool>> events;
    const int id = engine.addTileListener([&](int tile, bool healthy) {
        std::lock_guard<std::mutex> lk(mu);
        events.emplace_back(tile, healthy);
    });

    engine.failTile(1);
    EXPECT_EQ(engine.healthyTiles(), 2);
    {
        std::lock_guard<std::mutex> lk(mu);
        ASSERT_EQ(events.size(), 1u);
        EXPECT_EQ(events[0], std::make_pair(1, false));
    }

    // Each dispatch steps the cooldown; after tile_cooldown_dispatches
    // the tile rejoins and the listener sees the recovery edge.
    for (int i = 0; i < cfg.tile_cooldown_dispatches; ++i)
        engine.submitGemm(makeRequest(rng, 6, 16, 4)).get();
    engine.drain();
    EXPECT_EQ(engine.healthyTiles(), 3);
    {
        std::lock_guard<std::mutex> lk(mu);
        ASSERT_EQ(events.size(), 2u);
        EXPECT_EQ(events[1], std::make_pair(1, true));
    }

    // A removed listener sees nothing further.
    engine.removeTileListener(id);
    engine.failTile(0);
    engine.drain();
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(events.size(), 2u);
}

TEST_F(RuntimeEngineTest, TaskSurvivesInjectedTileFailureWithOneExecution)
{
    // The injection fires before the task body, so a retried task runs
    // its body exactly once — the retry is clean-slate, never a replay
    // on top of partial effects.
    FaultGuard guard;
    runtime::EngineConfig cfg;
    cfg.tiles = 2;
    runtime::RuntimeEngine engine(cfg);

    const uint64_t recovered_before = obs::MetricsRegistry::global()
                                          .counter(
                                              "fault.recovered.engine."
                                              "tile_fail")
                                          .value();
    fault::armPoint("engine.tile_fail", fault::FaultSpec::hit(1));
    std::atomic<int> runs{0};
    auto fut = engine.submitTask(
        [&](core::MirageAccelerator &, Rng &) { runs.fetch_add(1); });
    EXPECT_NO_THROW(fut.get());
    fault::reset();

    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(engine.healthyTiles(), 1);
    EXPECT_EQ(obs::MetricsRegistry::global()
                      .counter("fault.recovered.engine.tile_fail")
                      .value() -
                  recovered_before,
              1u);
}

TEST_F(RuntimeEngineTest, TaskFailsTerminallyThroughOnFailAfterRetries)
{
    // A tile failure on every attempt exhausts max_job_attempts: the
    // future carries TileFailure and the on_fail callback fires once
    // with the terminal reason.
    FaultGuard guard;
    runtime::EngineConfig cfg;
    cfg.tiles = 2;
    cfg.max_job_attempts = 2;
    runtime::RuntimeEngine engine(cfg);

    fault::armPoint("engine.tile_fail", fault::FaultSpec::hitEvery(1, 1));
    std::mutex mu;
    std::vector<std::string> reasons;
    runtime::TaskOptions opts;
    opts.on_fail = [&](const std::string &why) {
        std::lock_guard<std::mutex> lk(mu);
        reasons.push_back(why);
    };
    std::atomic<int> runs{0};
    auto fut = engine.submitTask(
        [&](core::MirageAccelerator &, Rng &) { runs.fetch_add(1); }, opts);
    EXPECT_THROW(fut.get(), runtime::TileFailure);
    fault::reset();

    EXPECT_EQ(runs.load(), 0);
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_NE(reasons[0].find("attempts"), std::string::npos) << reasons[0];
}

TEST_F(RuntimeEngineTest, AllTilesUnhealthyForcesAProbeAndRecovers)
{
    // With every tile unhealthy the engine must not deadlock: it forces
    // a probe dispatch on the tile closest to reintegration, and a
    // successful probe marks that tile healthy again.
    FaultGuard guard;
    runtime::EngineConfig cfg;
    cfg.tiles = 2;
    runtime::RuntimeEngine engine(cfg);
    engine.failTile(0);
    engine.failTile(1);
    EXPECT_EQ(engine.healthyTiles(), 0);

    const runtime::GemmRequest req = makeRequest(rng, 8, 16, 4);
    EXPECT_EQ(engine.submitGemm(req).get().c.size(), 8u * 4u);
    engine.drain();
    EXPECT_GE(engine.healthyTiles(), 1);
}

} // namespace
