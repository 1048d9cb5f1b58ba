/**
 * @file
 * Unit tests of the training orchestrator's building blocks — the
 * epoch-deterministic BatchIterator (replica sharding must partition each
 * epoch exactly once), LrSchedule (warmup/step/cosine), the gradient
 * utilities at the clip boundary — and of Trainer behaviours: schedules
 * driving the optimizer, accumulation, config validation, checkpoint
 * compatibility guards, and the train->serve hot-publish bridge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <set>
#include <vector>

#include "fault/injection.h"
#include "models/trainable.h"
#include "nn/data.h"
#include "obs/fidelity.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/checkpoint.h"
#include "serve/repository.h"
#include "train/grad_utils.h"
#include "train/schedule.h"
#include "train/trainer.h"
#include "test_support.h"

namespace {

using namespace mirage;

// ---------------------------------------------------------------------------
// BatchIterator
// ---------------------------------------------------------------------------

class BatchIteratorTest : public mirage::test::SeededTest
{
};

TEST_F(BatchIteratorTest, EpochOrderIsAFunctionOfSeedAndEpochOnly)
{
    const nn::Dataset data = nn::makeGaussianClusters(40, 3, 4, 3.0f, 1);
    nn::BatchIterator a(data, 8, /*seed=*/7);
    nn::BatchIterator b(data, 8, /*seed=*/7);

    // b consumes epoch 0 fully; a does not. Epoch 3's order must agree
    // anyway (no hidden stream state carried between epochs).
    nn::Dataset scratch;
    while (b.next(scratch)) {
    }
    a.setEpoch(3);
    b.setEpoch(3);
    for (int64_t i = 0; i < a.batchesPerEpoch(); ++i)
        EXPECT_EQ(a.batchIndices(i), b.batchIndices(i)) << "batch " << i;

    a.setEpoch(4);
    EXPECT_NE(a.batchIndices(0), b.batchIndices(0))
        << "distinct epochs should shuffle differently";
}

TEST_F(BatchIteratorTest, ReplicaShardedIterationPartitionsEachEpochOnce)
{
    const nn::Dataset data = nn::makeGaussianClusters(48, 3, 4, 3.0f, 2);
    nn::BatchIterator it(data, 4, /*seed=*/13, /*shuffle=*/true,
                         /*drop_last=*/true);
    it.setEpoch(5);
    for (const int replicas : {2, 3, 4}) {
        std::multiset<int> seen;
        // Replica r takes the batches with index % replicas == r; the
        // union over replicas must cover every sample exactly once.
        for (int r = 0; r < replicas; ++r)
            for (int64_t b = r; b < it.batchesPerEpoch(); b += replicas)
                for (const int row : it.batchIndices(b))
                    seen.insert(row);
        ASSERT_EQ(seen.size(), static_cast<size_t>(data.size()))
            << replicas << " replicas";
        for (int row = 0; row < data.size(); ++row)
            EXPECT_EQ(seen.count(row), 1u)
                << "sample " << row << " with " << replicas << " replicas";
    }
}

TEST_F(BatchIteratorTest, DropLastControlsRaggedTail)
{
    const nn::Dataset data = nn::makeGaussianClusters(22, 3, 4, 3.0f, 3);
    nn::BatchIterator keep(data, 8, 1, true, /*drop_last=*/false);
    nn::BatchIterator drop(data, 8, 1, true, /*drop_last=*/true);
    EXPECT_EQ(keep.batchesPerEpoch(), 3);
    EXPECT_EQ(drop.batchesPerEpoch(), 2);
    EXPECT_EQ(keep.batch(2).size(), 6); // 22 - 2*8
    EXPECT_EQ(drop.batch(1).size(), 8);
}

TEST_F(BatchIteratorTest, CursorRoundTripsForResume)
{
    const nn::Dataset data = nn::makeGaussianClusters(32, 3, 4, 3.0f, 4);
    nn::BatchIterator a(data, 4, 9);
    a.setEpoch(1);
    nn::Dataset scratch;
    a.next(scratch);
    a.next(scratch);
    ASSERT_EQ(a.cursor(), 2);

    // A fresh iterator repositioned at (epoch, cursor) yields the rest of
    // the epoch identically — the checkpoint-resume access pattern.
    nn::BatchIterator b(data, 4, 9);
    b.setEpoch(1);
    b.setCursor(2);
    nn::Dataset batch_a, batch_b;
    while (a.next(batch_a)) {
        ASSERT_TRUE(b.next(batch_b));
        EXPECT_EQ(batch_a.labels, batch_b.labels);
        for (int64_t i = 0; i < batch_a.inputs.size(); ++i)
            EXPECT_EQ(batch_a.inputs[i], batch_b.inputs[i]);
    }
    EXPECT_FALSE(b.next(batch_b));
}

// ---------------------------------------------------------------------------
// LrSchedule
// ---------------------------------------------------------------------------

TEST(LrScheduleTest, WarmupRampsLinearlyThenHandsOver)
{
    const train::LrSchedule s = train::LrSchedule::constant(4);
    EXPECT_DOUBLE_EQ(s.scale(0), 0.25);
    EXPECT_DOUBLE_EQ(s.scale(1), 0.5);
    EXPECT_DOUBLE_EQ(s.scale(3), 1.0);
    EXPECT_DOUBLE_EQ(s.scale(100), 1.0);
}

TEST(LrScheduleTest, StepDecayDropsByGammaEveryInterval)
{
    const train::LrSchedule s = train::LrSchedule::stepDecay(10, 0.1);
    EXPECT_DOUBLE_EQ(s.scale(0), 1.0);
    EXPECT_DOUBLE_EQ(s.scale(9), 1.0);
    EXPECT_DOUBLE_EQ(s.scale(10), 0.1);
    EXPECT_DOUBLE_EQ(s.scale(25), 0.01);
}

TEST(LrScheduleTest, CosineAnnealsToMinScaleAndStays)
{
    const train::LrSchedule s = train::LrSchedule::cosine(100, 0.05);
    EXPECT_DOUBLE_EQ(s.scale(0), 1.0);
    EXPECT_NEAR(s.scale(50), 0.05 + 0.95 * 0.5, 1e-12); // half-way point
    EXPECT_DOUBLE_EQ(s.scale(100), 0.05);
    EXPECT_DOUBLE_EQ(s.scale(1000), 0.05);
    // Monotone non-increasing over the horizon.
    for (int64_t t = 1; t < 100; ++t)
        EXPECT_LE(s.scale(t), s.scale(t - 1)) << "step " << t;
}

TEST(LrScheduleTest, ValidateRejectsBadKnobs)
{
    EXPECT_THROW(train::LrSchedule::stepDecay(0, 0.1).validate(),
                 std::invalid_argument);
    EXPECT_THROW(train::LrSchedule::stepDecay(5, 0.0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(train::LrSchedule::cosine(4, 0.0, 4).validate(),
                 std::invalid_argument);
    EXPECT_THROW(train::LrSchedule::cosine(10, 1.5).validate(),
                 std::invalid_argument);
    EXPECT_NO_THROW(train::LrSchedule::cosine(10, 0.0, 2).validate());
}

// ---------------------------------------------------------------------------
// Gradient utilities
// ---------------------------------------------------------------------------

TEST(GradUtilsTest, ClipBoundaryIsInclusive)
{
    // Norm of {3, 4} is exactly 5: at max_norm == 5 nothing changes.
    std::vector<float> grads = {3.0f, 4.0f};
    EXPECT_DOUBLE_EQ(train::clipGradNorm(std::span<float>(grads), 5.0), 5.0);
    EXPECT_EQ(grads[0], 3.0f);
    EXPECT_EQ(grads[1], 4.0f);

    // Just above the boundary: rescaled onto the max-norm sphere.
    const double max_norm = 5.0 * (1.0 - 1e-6);
    const double pre = train::clipGradNorm(std::span<float>(grads), max_norm);
    EXPECT_DOUBLE_EQ(pre, 5.0);
    EXPECT_NEAR(train::globalGradNorm(std::span<const float>(grads)),
                max_norm, 1e-6);
    EXPECT_NEAR(grads[0] / grads[1], 0.75, 1e-6) << "direction preserved";
}

TEST(GradUtilsTest, ParamOverloadClipsAcrossAllParameters)
{
    nn::Param a, b;
    a.value = nn::Tensor({2});
    a.grad = nn::Tensor({2});
    b.value = nn::Tensor({1});
    b.grad = nn::Tensor({1});
    a.grad[0] = 2.0f;
    a.grad[1] = 1.0f;
    b.grad[0] = 2.0f;
    const std::vector<nn::Param *> params = {&a, &b};
    EXPECT_DOUBLE_EQ(train::globalGradNorm(params), 3.0);

    const double pre = train::clipGradNorm(params, 1.5);
    EXPECT_DOUBLE_EQ(pre, 3.0);
    EXPECT_NEAR(train::globalGradNorm(params), 1.5, 1e-6);
    EXPECT_NEAR(a.grad[0], 1.0f, 1e-6);
    EXPECT_NEAR(b.grad[0], 1.0f, 1e-6);
}

TEST(GradUtilsTest, AllFiniteFlagsNanAndInf)
{
    std::vector<float> ok = {1.0f, -2.0f, 0.0f};
    EXPECT_TRUE(train::allFinite(ok));
    std::vector<float> with_nan = {1.0f, std::nanf("")};
    EXPECT_FALSE(train::allFinite(with_nan));
    std::vector<float> with_inf = {1.0f, INFINITY};
    EXPECT_FALSE(train::allFinite(with_inf));
}

#ifndef NDEBUG
TEST(GradUtilsDeathTest, DebugGuardPanicsOnNanGradient)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<float> bad = {1.0f, std::nanf("")};
    EXPECT_DEATH(train::assertFiniteGrads(bad, "a unit test"),
                 "non-finite gradient");
}
#endif

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

constexpr int kIn = 8, kHidden = 16, kClasses = 3;

serve::ModelFactory
mlpFactory()
{
    return [](nn::GemmBackend *backend, Rng &rng) {
        return models::makeMlp(kIn, kHidden, kClasses, backend, rng);
    };
}

models::ModelShape
mlpShape()
{
    models::ModelShape shape;
    shape.name = "mlp";
    shape.layers = {{"fc1", kHidden, kIn, 1, 1, true},
                    {"fc2", kHidden, kHidden, 1, 1, true},
                    {"fc3", kClasses, kHidden, 1, 1, true}};
    return shape;
}

class TrainerTest : public mirage::test::SeededTest
{
  protected:
    // One generated distribution, split train/test: a fresh seed would
    // draw different cluster centers and make the test set unlearnable.
    nn::Dataset all_data = nn::makeGaussianClusters(144, kClasses, kIn,
                                                    3.0f, 31);
    nn::Dataset train_data = all_data.slice(0, 96);
    nn::Dataset test_data = all_data.slice(96, 48);

    train::TrainerConfig
    baseConfig()
    {
        train::TrainerConfig cfg;
        cfg.micro_batch = 8;
        cfg.shards_per_step = 4;
        cfg.seed = 11;
        return cfg;
    }
};

TEST_F(TrainerTest, ConfigValidateRejectsBadKnobs)
{
    auto expectInvalid = [](train::TrainerConfig cfg) {
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    train::TrainerConfig cfg;
    cfg.replicas = 0;
    expectInvalid(cfg);
    cfg = {};
    cfg.micro_batch = 0;
    expectInvalid(cfg);
    cfg = {};
    cfg.accum_rounds = -1;
    expectInvalid(cfg);
    cfg = {};
    cfg.clip_norm = -0.1;
    expectInvalid(cfg);
    serve::ModelRepository repo;
    cfg = {};
    cfg.publish_to = &repo; // no publish_name
    expectInvalid(cfg);
    cfg.publish_name = "m";
    EXPECT_NO_THROW(cfg.validate());
}

TEST_F(TrainerTest, LearnsAndReportsCurves)
{
    train::TrainerConfig cfg = baseConfig();
    cfg.shape = mlpShape();
    train::Trainer trainer(mlpFactory(),
                           std::make_unique<nn::Sgd>(0.05f, 0.9f), cfg);
    const train::TrainReport report =
        trainer.run(train_data, &test_data, /*target_epochs=*/6);

    EXPECT_EQ(report.steps_run, 6 * 3); // 12 batches / 4 shards per step
    EXPECT_EQ(report.samples_seen, report.steps_run * 32);
    ASSERT_EQ(report.epoch_loss.size(), 6u);
    ASSERT_EQ(report.epoch_test_acc.size(), 6u);
    EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
    EXPECT_GT(report.final_test_accuracy, 0.8f);
    EXPECT_GT(report.samples_per_s, 0.0);
    // Modeled accelerator cost is wired through the shape.
    EXPECT_GT(report.modeled_step_time_s, 0.0);
    EXPECT_GT(report.modeled_energy_j, 0.0);
    EXPECT_GT(report.modeledJoulesPerSample(), 0.0);
    EXPECT_NEAR(report.modeled_time_s,
                report.modeled_step_time_s * report.steps_run, 1e-12);
}

TEST_F(TrainerTest, ScheduleDrivesOptimizerThroughSetLrHook)
{
    train::TrainerConfig cfg = baseConfig();
    cfg.schedule = train::LrSchedule::stepDecay(/*decay_every=*/3, 0.1,
                                                /*warmup_steps=*/2);
    train::Trainer trainer(mlpFactory(), std::make_unique<nn::Sgd>(0.1f),
                           cfg);
    const train::TrainReport report =
        trainer.run(train_data, nullptr, /*target_epochs=*/3); // 9 steps

    ASSERT_EQ(report.step_lr.size(), 9u);
    EXPECT_NEAR(report.step_lr[0], 0.1f * 0.5f, 1e-7); // warmup 1/2
    EXPECT_NEAR(report.step_lr[1], 0.1f, 1e-7);        // warmup 2/2
    EXPECT_NEAR(report.step_lr[2], 0.1f, 1e-7);        // decay t=0
    EXPECT_NEAR(report.step_lr[5], 0.01f, 1e-7);       // decay t=3
    EXPECT_NEAR(report.step_lr[8], 0.001f, 1e-7);      // decay t=6
    // The optimizer itself saw the scheduled rate.
    EXPECT_NEAR(trainer.optimizer().lr(), 0.001f, 1e-7);
}

TEST_F(TrainerTest, AccumulationMultipliesEffectiveBatch)
{
    train::TrainerConfig cfg = baseConfig();
    cfg.shards_per_step = 2;
    cfg.accum_rounds = 3;
    EXPECT_EQ(cfg.effectiveBatch(), 8 * 2 * 3);
    train::Trainer trainer(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                           cfg);
    // 12 batches/epoch, 6 per step -> 2 steps per epoch.
    const train::TrainReport report = trainer.run(train_data, nullptr, 2);
    EXPECT_EQ(report.steps_run, 4);
    EXPECT_EQ(report.samples_seen, 4 * cfg.effectiveBatch());
}

TEST_F(TrainerTest, ClippingEngagesAndIsRecorded)
{
    train::TrainerConfig cfg = baseConfig();
    cfg.clip_norm = 0.25;
    train::Trainer trainer(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                           cfg);
    const train::TrainReport report = trainer.run(train_data, nullptr, 1);
    EXPECT_GT(report.max_grad_norm, cfg.clip_norm);
    EXPECT_GT(report.clipped_steps, 0u);
    EXPECT_LE(report.clipped_steps,
              static_cast<uint64_t>(report.steps_run));
}

TEST_F(TrainerTest, PeriodicCheckpointAndHotPublishToRepository)
{
    serve::ModelRepository repo;
    train::TrainerConfig cfg = baseConfig();
    cfg.publish_to = &repo;
    cfg.publish_name = "mlp";
    cfg.shape = mlpShape();
    cfg.checkpoint_every_steps = 2;
    train::Trainer trainer(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                           cfg);
    const train::TrainReport report =
        trainer.run(train_data, nullptr, 2); // 6 steps -> publishes at 2,4,6

    EXPECT_EQ(report.last_published_version, 3);
    EXPECT_EQ(repo.currentVersion("mlp"), 3);
    EXPECT_EQ(repo.liveVersions("mlp"), 3u);

    // The served copy must be the trained weights, bit for bit: the same
    // input produces the same logits through the repository's replica.
    const std::shared_ptr<serve::ServedModel> served = repo.acquire("mlp");
    ASSERT_TRUE(served->functional());
    nn::Tensor x({1, kIn});
    for (int64_t i = 0; i < x.size(); ++i)
        x[i] = 0.1f * static_cast<float>(i);
    const nn::Tensor from_trainer = trainer.net().forward(x, false);
    const nn::Tensor from_repo = served->net->forward(x, false);
    ASSERT_EQ(from_trainer.size(), from_repo.size());
    for (int64_t i = 0; i < from_trainer.size(); ++i)
        EXPECT_EQ(from_trainer[i], from_repo[i]) << "logit " << i;

    // Hot-swap retirement drops the stale versions.
    EXPECT_EQ(repo.retireOldVersions("mlp"), 2u);
    EXPECT_EQ(repo.liveVersions("mlp"), 1u);
}

TEST_F(TrainerTest, LoadCheckpointRejectsIncompatibleConfigs)
{
    train::Trainer source(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                          baseConfig());
    source.run(train_data, nullptr, 1);
    const serve::Checkpoint ckpt = source.makeCheckpoint();

    {
        // Different effective batch.
        train::TrainerConfig cfg = baseConfig();
        cfg.shards_per_step = 2;
        train::Trainer t(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         cfg);
        EXPECT_THROW(t.loadCheckpoint(ckpt), serve::CheckpointError);
    }
    {
        // Same effective batch (32), different micro-batch split: the
        // replayed shards and reduction tree would differ, so it must
        // throw rather than silently diverge.
        train::TrainerConfig cfg = baseConfig();
        cfg.micro_batch = 16;
        cfg.shards_per_step = 2;
        ASSERT_EQ(cfg.effectiveBatch(), baseConfig().effectiveBatch());
        train::Trainer t(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         cfg);
        EXPECT_THROW(t.loadCheckpoint(ckpt), serve::CheckpointError);
    }
    {
        // Different data-shuffle seed.
        train::TrainerConfig cfg = baseConfig();
        cfg.seed = 12;
        train::Trainer t(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         cfg);
        EXPECT_THROW(t.loadCheckpoint(ckpt), serve::CheckpointError);
    }
    {
        // Different base learning rate.
        train::Trainer t(mlpFactory(), std::make_unique<nn::Sgd>(0.01f),
                         baseConfig());
        EXPECT_THROW(t.loadCheckpoint(ckpt), serve::CheckpointError);
    }
    {
        // Different LR schedule: the post-resume rate trajectory would
        // diverge from the uninterrupted run's.
        train::TrainerConfig cfg = baseConfig();
        cfg.schedule = train::LrSchedule::cosine(100);
        train::Trainer t(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         cfg);
        EXPECT_THROW(t.loadCheckpoint(ckpt), serve::CheckpointError);
    }
    {
        // Different clip norm.
        train::TrainerConfig cfg = baseConfig();
        cfg.clip_norm = 1.0;
        train::Trainer t(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         cfg);
        EXPECT_THROW(t.loadCheckpoint(ckpt), serve::CheckpointError);
    }
    {
        // A non-trainer checkpoint (no resume metadata).
        train::Trainer t(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         baseConfig());
        serve::Checkpoint bare = ckpt;
        bare.metadata.clear();
        EXPECT_THROW(t.loadCheckpoint(bare), serve::CheckpointError);
    }
    {
        // Matching config loads fine.
        train::Trainer t(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         baseConfig());
        EXPECT_NO_THROW(t.loadCheckpoint(ckpt));
        EXPECT_EQ(t.globalStep(), source.globalStep());
    }
}

TEST_F(TrainerTest, ResumingWithADifferentDatasetThrows)
{
    train::Trainer source(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                          baseConfig());
    source.run(train_data, nullptr, 1);
    const serve::Checkpoint ckpt = source.makeCheckpoint();

    train::Trainer resumed(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                           baseConfig());
    resumed.loadCheckpoint(ckpt);
    // Same seed and config, but a different dataset: the replayed batches
    // would differ, so the continued run must refuse instead of silently
    // diverging from an uninterrupted one.
    const nn::Dataset other = all_data.slice(0, 64);
    EXPECT_THROW(resumed.run(other, nullptr, 2), serve::CheckpointError);
    EXPECT_NO_THROW(resumed.run(train_data, nullptr, 2));
}

TEST_F(TrainerTest, RunRejectsDatasetSmallerThanOneStep)
{
    train::TrainerConfig cfg = baseConfig();
    cfg.micro_batch = 64;
    cfg.shards_per_step = 4; // 256 > 96 samples
    train::Trainer trainer(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                           cfg);
    EXPECT_THROW(trainer.run(train_data, nullptr, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replica failure and elastic resume
// ---------------------------------------------------------------------------

/** Disarms the fault registry around a test body. */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard() { fault::reset(); }
};

/** Replica-0 parameters flattened for bit-exact comparison. */
std::vector<float>
flatParams(train::Trainer &t)
{
    std::vector<float> out;
    for (const nn::Param *p : t.net().params())
        out.insert(out.end(), p->value.data(),
                   p->value.data() + p->value.size());
    return out;
}

TEST_F(TrainerTest, ReplicaKillIsBitIdenticalToLowerReplicaRun)
{
    // Replica count never touches the numbers: shard order and the
    // reduction tree depend only on the shard count. So a mid-run kill
    // that elides one of three replicas must land on weights
    // bit-identical to an uninterrupted two-replica run — even with no
    // checkpoint to resume from, because the aborted step left no
    // side effects.
    FaultGuard guard;
    const int64_t steps = 6;

    train::TrainerConfig base_cfg = baseConfig();
    base_cfg.replicas = 2;
    train::Trainer baseline(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                            base_cfg);
    baseline.run(train_data, nullptr, 1000, steps);

    train::TrainerConfig chaos_cfg = baseConfig();
    chaos_cfg.replicas = 3;
    // 3 replica evaluations per step: eval 5 kills one replica during
    // step 2.
    fault::armPoint("train.replica_fail", fault::FaultSpec::hit(5));
    train::Trainer chaos(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         chaos_cfg);
    const train::TrainReport report =
        chaos.run(train_data, nullptr, 1000, steps);
    fault::reset();

    EXPECT_EQ(report.replica_failures, 1);
    EXPECT_EQ(report.elastic_resumes, 0) << "no checkpoint was configured";
    EXPECT_EQ(chaos.config().replicas, 2);
    EXPECT_EQ(chaos.globalStep(), steps);
    EXPECT_EQ(flatParams(chaos), flatParams(baseline));
}

TEST_F(TrainerTest, ReplicaKillResumesElasticallyFromCheckpoint)
{
    FaultGuard guard;
    const std::string path =
        ::testing::TempDir() + "trainer_elastic.mirckpt";
    std::remove(path.c_str());
    std::remove((path + ".last_good").c_str());
    const int64_t steps = 6;

    train::TrainerConfig base_cfg = baseConfig();
    base_cfg.replicas = 2;
    train::Trainer baseline(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                            base_cfg);
    baseline.run(train_data, nullptr, 1000, steps);

    train::TrainerConfig chaos_cfg = baseConfig();
    chaos_cfg.replicas = 3;
    chaos_cfg.checkpoint_path = path;
    chaos_cfg.checkpoint_every_steps = 2;
    // Step 3 spans evaluations 7..9: the kill lands after the step-2
    // checkpoint exists, so the trainer reloads it and replays 3..6 at
    // two replicas.
    fault::armPoint("train.replica_fail", fault::FaultSpec::hit(8));
    train::Trainer chaos(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                         chaos_cfg);
    const train::TrainReport report =
        chaos.run(train_data, nullptr, 1000, steps);
    fault::reset();

    EXPECT_EQ(report.replica_failures, 1);
    EXPECT_EQ(report.elastic_resumes, 1);
    EXPECT_EQ(chaos.config().replicas, 2);
    EXPECT_EQ(chaos.globalStep(), steps);
    EXPECT_EQ(flatParams(chaos), flatParams(baseline));

    std::remove(path.c_str());
    std::remove((path + ".last_good").c_str());
}

TEST_F(TrainerTest, LosingEveryReplicaIsTerminal)
{
    // With one replica a kill leaves no survivors: the trainer must fail
    // loudly rather than spin on an empty replica set.
    FaultGuard guard;
    train::TrainerConfig cfg = baseConfig();
    cfg.replicas = 1;
    fault::armPoint("train.replica_fail", fault::FaultSpec::hit(1));
    train::Trainer trainer(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                           cfg);
    EXPECT_THROW(trainer.run(train_data, nullptr, 1000, 4),
                 std::runtime_error);
    fault::reset();
}

TEST_F(TrainerTest, SmallCnnReplicaLegsMakeNoNestedDispatch)
{
    // The perfbench train_cnn shape: the small CNN on [4, 1, 16, 16]
    // micro-batches, two replicas, four shards per accumulation round, on
    // a two-worker pool. Every GEMM of a leg sits below bfpGemm's fork
    // cutoffs, so the loop over the replica legs is the only threaded
    // dispatch of a round.
    if (!obs::enabled())
        GTEST_SKIP() << "needs the runtime.pool.loops counter (MIRAGE_OBS)";
    struct PoolGuard
    {
        PoolGuard() { runtime::ThreadPool::setGlobalThreads(2); }
        ~PoolGuard() { runtime::ThreadPool::setGlobalThreads(0); }
    } pool;
    // Probes off whatever MIRAGE_FIDELITY says: a probed GEMM's RNS
    // replay forks at far smaller sizes (bfpGemmRnsReference).
    struct ProbeGuard
    {
        const uint64_t saved = obs::fidelity::probeInterval();
        ProbeGuard() { obs::fidelity::setProbeInterval(0); }
        ~ProbeGuard() { obs::fidelity::setProbeInterval(saved); }
    } probes;
    obs::Counter &loops =
        obs::MetricsRegistry::global().counter("runtime.pool.loops");
    const nn::Dataset data = nn::makePatternImages(64, 4, 16, 0.3f, 5);
    train::TrainerConfig cfg;
    cfg.replicas = 2;
    cfg.micro_batch = 4;
    cfg.shards_per_step = 4;
    cfg.accum_rounds = 2;
    cfg.seed = 3;
    train::Trainer trainer(
        [](nn::GemmBackend *backend, Rng &rng) {
            return models::makeSmallCnn(4, backend, rng);
        },
        std::make_unique<nn::Sgd>(0.05f, 0.9f), cfg);
    trainer.run(data, nullptr, 1000, 1); // warm-up step
    const uint64_t before = loops.value();
    const train::TrainReport report = trainer.run(data, nullptr, 1000, 2);
    ASSERT_EQ(report.steps_run, 2);
    EXPECT_EQ(loops.value() - before,
              static_cast<uint64_t>(2 * cfg.accum_rounds));
}

TEST_F(TrainerTest, PublishNowWithoutRepositoryThrows)
{
    train::Trainer trainer(mlpFactory(), std::make_unique<nn::Sgd>(0.05f),
                           baseConfig());
    EXPECT_THROW(trainer.publishNow(), std::logic_error);
}

} // namespace
