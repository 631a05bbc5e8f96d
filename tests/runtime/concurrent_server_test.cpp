#include "fleet/runtime/concurrent_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/runtime/topology.hpp"

namespace fleet::runtime {
namespace {

using test::pretrained_iprof;

/// Tiny model + server pair; K = 1 so every gradient updates the model.
struct ServerEnv {
  explicit ServerEnv(const RuntimeConfig& runtime = {}) {
    model = nn::zoo::mlp(8, 4, 3);
    model->init(7);
    core::ServerConfig config;
    config.learning_rate = 0.1f;
    server = std::make_unique<ConcurrentFleetServer>(*model, pretrained_iprof(),
                                                     config, runtime);
  }

  GradientJob unit_job(std::size_t task_version) const {
    GradientJob job;
    job.task_version = task_version;
    job.gradient.assign(model->parameter_count(), 0.01f);
    job.label_dist = stats::LabelDistribution(model->n_classes());
    job.label_dist.add(0);
    job.mini_batch = 4;
    return job;
  }

  /// A job with parameter-index-varied gradient values, so fold-order or
  /// span-partition mistakes change the model instead of cancelling out.
  GradientJob varied_job(std::size_t task_version, std::size_t salt) const {
    GradientJob job = unit_job(task_version);
    for (std::size_t i = 0; i < job.gradient.size(); ++i) {
      job.gradient[i] =
          0.001f * static_cast<float>((i * 7 + salt * 13) % 23) - 0.01f;
    }
    job.label_dist = stats::LabelDistribution(model->n_classes());
    job.label_dist.add(static_cast<int>(salt % model->n_classes()), 2);
    return job;
  }

  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<ConcurrentFleetServer> server;
};

TEST(ConcurrentServerTest, PublishesVersionZeroSnapshotAtConstruction) {
  ServerEnv env;
  const auto record = env.server->current();
  EXPECT_EQ(record.version, 0u);
  ASSERT_NE(record.snapshot, nullptr);
  EXPECT_EQ(record.snapshot->size(), env.model->parameter_count());
  env.server->stop();
}

TEST(ConcurrentServerTest, ProcessesSubmittedGradientsAndAdvancesClock) {
  ServerEnv env;
  for (std::size_t i = 0; i < 3; ++i) {
    GradientJob job = env.unit_job(env.server->version());
    const auto receipt = env.server->try_submit(job);
    ASSERT_TRUE(receipt.accepted);
    env.server->drain();
  }
  EXPECT_EQ(env.server->version(), 3u);
  const auto stats = env.server->stats();
  EXPECT_EQ(stats.processed, 3u);
  EXPECT_EQ(stats.model_updates, 3u);
  EXPECT_EQ(stats.backpressure_rejects, 0u);
  // Every drain-separated submission saw the fresh clock: zero staleness.
  EXPECT_EQ(stats.staleness_hist.count, 3u);
  EXPECT_EQ(stats.staleness_hist.counts[0], 3u);  // bucket (..0]
  EXPECT_EQ(stats.staleness_hist.sum, 0.0);
  EXPECT_EQ(stats.staleness_hist.max, 0.0);
  EXPECT_EQ(stats.weight_hist.count, 3u);
  env.server->stop();
}

TEST(ConcurrentServerTest, QueueBackpressureSurfacesAsRejectedReceipt) {
  RuntimeConfig runtime;
  runtime.queue_capacity = 2;
  runtime.queue_shards = 1;
  runtime.start_paused = true;  // stage a backlog deterministically
  ServerEnv env(runtime);

  GradientJob a = env.unit_job(0);
  GradientJob b = env.unit_job(0);
  GradientJob c = env.unit_job(0);
  EXPECT_TRUE(env.server->try_submit(a).accepted);
  EXPECT_TRUE(env.server->try_submit(b).accepted);
  const auto rejected = env.server->try_submit(c);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_FALSE(rejected.reject_reason.empty());
  EXPECT_TRUE(rejected.retryable);  // backpressure is transient
  // The rejected job is intact for a retry.
  EXPECT_EQ(c.gradient.size(), env.model->parameter_count());

  env.server->resume();
  env.server->drain();
  const auto stats = env.server->stats();
  EXPECT_EQ(stats.processed, 2u);
  EXPECT_EQ(stats.backpressure_rejects, 1u);

  // After the backlog cleared the retry goes through.
  EXPECT_TRUE(env.server->try_submit(c).accepted);
  env.server->drain();
  EXPECT_EQ(env.server->stats().processed, 3u);
  env.server->stop();
}

TEST(ConcurrentServerTest, StalenessIsExactUnderQueueing) {
  RuntimeConfig runtime;
  runtime.queue_capacity = 8;
  runtime.queue_shards = 1;
  runtime.start_paused = true;
  ServerEnv env(runtime);

  // Three gradients all computed against version 0, queued before any is
  // processed. K = 1: each updates the model, so the clock reads 0, 1, 2
  // as they are drained — their staleness must be exactly 0, 1, 2.
  for (int i = 0; i < 3; ++i) {
    GradientJob job = env.unit_job(0);
    ASSERT_TRUE(env.server->try_submit(job).accepted);
  }
  env.server->resume();
  env.server->drain();
  const auto stats = env.server->stats();
  // staleness_bounds() has unit buckets up to 8: counts[k] holds tau == k.
  std::vector<std::uint64_t> expected(stats.staleness_hist.counts.size(), 0);
  expected[0] = expected[1] = expected[2] = 1;
  EXPECT_EQ(stats.staleness_hist.counts, expected);
  EXPECT_EQ(stats.staleness_hist.count, 3u);
  EXPECT_EQ(stats.staleness_hist.sum, 3.0);
  EXPECT_EQ(stats.staleness_hist.min, 0.0);
  EXPECT_EQ(stats.staleness_hist.max, 2.0);
  env.server->stop();
}

TEST(ConcurrentServerTest, StalenessStaysExactUnderBatchedShardedDrains) {
  // Satellite regression: saturate the queue while the aggregation thread
  // is parked, then let it drain in small admission-ordered batches through
  // the sharded fold. Every applied gradient's recorded tau must equal
  // (server clock at processing) - (model version at request) — the
  // batching and the shard fan-out must not smear the logical clock.
  RuntimeConfig runtime;
  runtime.queue_capacity = 64;
  runtime.queue_shards = 4;
  runtime.start_paused = true;
  runtime.aggregation_shards = 2;
  runtime.max_drain_batch = 4;
  ServerEnv env(runtime);

  // Wave 1: ten gradients, all computed against version 0, queued before
  // any is processed. K = 1: the clock reads 0..9 as they drain.
  for (std::size_t i = 0; i < 10; ++i) {
    GradientJob job = env.unit_job(env.server->version());
    ASSERT_TRUE(env.server->try_submit(job).accepted);
  }
  env.server->resume();
  env.server->drain();
  EXPECT_EQ(env.server->version(), 10u);

  // Wave 2: park again mid-life and stage a second backlog against the
  // advanced clock; tau must restart from 0 relative to version 10.
  env.server->pause();
  for (std::size_t i = 0; i < 6; ++i) {
    GradientJob job = env.unit_job(10);
    ASSERT_TRUE(env.server->try_submit(job).accepted);
  }
  env.server->resume();
  env.server->drain();

  const auto stats = env.server->stats();
  // Wave 1 saw tau 0..9 (clock i, request version 0), wave 2 tau 0..5
  // (clock 10 + i, request version 10). staleness_bounds() has unit
  // buckets up to 8, so counts[k] holds tau == k and tau 9 lands in
  // (8, 12]. Order is not visible here; the bitwise comparison against
  // core::FleetServer below covers it.
  std::vector<std::uint64_t> expected(stats.staleness_hist.counts.size(), 0);
  for (std::size_t k = 0; k <= 5; ++k) expected[k] = 2;
  for (std::size_t k = 6; k <= 8; ++k) expected[k] = 1;
  expected[9] = 1;
  EXPECT_EQ(stats.staleness_hist.counts, expected);
  EXPECT_EQ(stats.staleness_hist.count, 16u);
  EXPECT_EQ(stats.staleness_hist.sum, 60.0);
  EXPECT_EQ(stats.staleness_hist.min, 0.0);
  EXPECT_EQ(stats.staleness_hist.max, 9.0);
  EXPECT_EQ(env.server->version(), 16u);
  env.server->stop();
}

TEST(ConcurrentServerTest, ShardedBatchedFoldMatchesSequentialBitwise) {
  // The same staged backlog through (a) core::FleetServer, whose
  // handle_gradient is the sequential AsyncAggregator::submit fold, and
  // (b) the host's plan->fold path at every shard count and drain batch
  // must yield bit-identical parameters: weights are computed centrally
  // and every parameter index sees the same operation sequence.
  auto run = [](const RuntimeConfig& runtime) {
    ServerEnv env(runtime);
    for (std::size_t i = 0; i < 12; ++i) {
      // All staged against version 0 (the thread is parked), so the drain
      // produces staleness 0..11 identically in every configuration.
      GradientJob job = env.varied_job(0, i);
      EXPECT_TRUE(env.server->try_submit(job).accepted);
    }
    env.server->resume();
    env.server->drain();
    env.server->stop();
    const auto view = env.model->parameters_view();
    return std::vector<float>(view.begin(), view.end());
  };

  ServerEnv env;  // an idle host: its model and jobs seed the reference
  env.server->stop();
  core::ServerConfig config;
  config.learning_rate = 0.1f;
  core::FleetServer sequential(*env.model, pretrained_iprof(), config);
  for (std::size_t i = 0; i < 12; ++i) {
    const GradientJob job = env.varied_job(0, i);
    sequential.handle_gradient(0, job.gradient, job.label_dist,
                               job.mini_batch);
  }
  const auto view = env.model->parameters_view();
  const std::vector<float> reference(view.begin(), view.end());

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t batch : {1u, 3u, 0u}) {
      RuntimeConfig runtime;
      runtime.start_paused = true;
      runtime.aggregation_shards = shards;
      runtime.max_drain_batch = batch;
      const auto params = run(runtime);
      ASSERT_EQ(params.size(), reference.size());
      EXPECT_EQ(0, std::memcmp(params.data(), reference.data(),
                               reference.size() * sizeof(float)))
          << "shards=" << shards << " batch=" << batch;
    }
  }
}

TEST(ConcurrentServerTest, StatsSurfaceQueueOccupancyGauges) {
  RuntimeConfig runtime;
  runtime.queue_capacity = 16;
  runtime.queue_shards = 2;
  runtime.start_paused = true;  // hold the backlog so the gauges are stable
  ServerEnv env(runtime);

  for (std::size_t i = 0; i < 3; ++i) {
    GradientJob job = env.unit_job(0);
    ASSERT_TRUE(env.server->try_submit(job).accepted);
  }
  auto stats = env.server->stats();
  EXPECT_EQ(stats.queue_depth, 3u);
  EXPECT_EQ(stats.queue_max_depth_seen, 3u);
  ASSERT_EQ(stats.queue_shard_depths.size(), 2u);
  EXPECT_EQ(stats.queue_shard_depths[0] + stats.queue_shard_depths[1], 3u);

  env.server->resume();
  env.server->drain();
  stats = env.server->stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  // The high-water mark survives the drain — and host_stats() carries it
  // too, the view that outlives every session.
  EXPECT_EQ(stats.queue_max_depth_seen, 3u);
  EXPECT_EQ(env.server->host_stats().queue_max_depth_seen, 3u);
  EXPECT_EQ(stats.queue_shard_depths,
            std::vector<std::size_t>(2, 0u));
  EXPECT_EQ(stats.retired_drops, 0u);
  env.server->stop();
}

TEST(ConcurrentServerTest, MalformedJobsAreRefusedAtAdmission) {
  // A throw on the aggregation thread would terminate the process, so
  // every input the downstream components validate must be screened in
  // try_submit and surface as a permanent (non-retryable) rejection.
  ServerEnv env;

  GradientJob wrong_size = env.unit_job(0);
  wrong_size.gradient.resize(3);
  auto receipt = env.server->try_submit(wrong_size);
  EXPECT_FALSE(receipt.accepted);
  EXPECT_FALSE(receipt.retryable);

  GradientJob wrong_classes = env.unit_job(0);
  wrong_classes.label_dist = stats::LabelDistribution(1);
  receipt = env.server->try_submit(wrong_classes);
  EXPECT_FALSE(receipt.accepted);
  EXPECT_FALSE(receipt.retryable);

  GradientJob bad_feedback = env.unit_job(0);
  bad_feedback.feedback = profiler::Observation{};  // mini_batch == 0
  receipt = env.server->try_submit(bad_feedback);
  EXPECT_FALSE(receipt.accepted);
  EXPECT_FALSE(receipt.retryable);

  // The server is unharmed: a well-formed job still goes through.
  GradientJob good = env.unit_job(0);
  EXPECT_TRUE(env.server->try_submit(good).accepted);
  env.server->drain();
  EXPECT_EQ(env.server->stats().processed, 1u);
  env.server->stop();
}

TEST(ConcurrentServerTest, FutureVersionJobsAreDroppedNotApplied) {
  ServerEnv env;
  GradientJob job = env.unit_job(999);
  ASSERT_TRUE(env.server->try_submit(job).accepted);
  env.server->drain();
  const auto stats = env.server->stats();
  EXPECT_EQ(stats.invalid_jobs, 1u);
  EXPECT_EQ(stats.processed, 0u);
  EXPECT_EQ(env.server->version(), 0u);
  env.server->stop();
}

TEST(ConcurrentServerTest, ConcurrentRequestersAndSubmittersStayConsistent) {
  ServerEnv env;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 25;
  const std::size_t param_count = env.model->parameter_count();

  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // Lock-free snapshot read, then a submit against that version.
        const auto record = env.server->current();
        ASSERT_NE(record.snapshot, nullptr);
        ASSERT_EQ(record.snapshot->size(), param_count);
        GradientJob job = env.unit_job(record.version);
        while (!env.server->try_submit(job).accepted) {
          std::this_thread::yield();
        }
        accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : pool) t.join();
  env.server->drain();

  const auto stats = env.server->stats();
  EXPECT_EQ(accepted.load(), kThreads * kPerThread);
  EXPECT_EQ(stats.processed, kThreads * kPerThread);
  EXPECT_EQ(stats.invalid_jobs, 0u);
  // K = 1: every processed gradient advanced the clock.
  EXPECT_EQ(env.server->version(), kThreads * kPerThread);
  EXPECT_EQ(stats.staleness_hist.count, kThreads * kPerThread);
  EXPECT_EQ(stats.weight_hist.count, kThreads * kPerThread);
  EXPECT_GE(stats.staleness_hist.min, 0.0);
  env.server->stop();
}

/// Multi-tenant host with `tenants` identically shaped sessions.
struct HostEnv {
  HostEnv(const RuntimeConfig& runtime, std::size_t tenants) {
    server = std::make_unique<ConcurrentFleetServer>(runtime);
    core::ServerConfig config;
    config.learning_rate = 0.1f;
    for (std::size_t m = 0; m < tenants; ++m) {
      models.push_back(nn::zoo::mlp(8, 4, 3));
      models.back()->init(static_cast<unsigned>(7 + m));
      ids.push_back(
          server->register_model(*models.back(), pretrained_iprof(), config));
    }
  }

  GradientJob varied_job(core::ModelId id, std::size_t task_version,
                         std::size_t salt) const {
    GradientJob job;
    job.model_id = id;
    job.task_version = task_version;
    job.gradient.resize(models[0]->parameter_count());
    for (std::size_t i = 0; i < job.gradient.size(); ++i) {
      job.gradient[i] =
          0.001f * static_cast<float>((i * 7 + salt * 13 + id * 5) % 23) -
          0.01f;
    }
    job.label_dist = stats::LabelDistribution(models[0]->n_classes());
    job.label_dist.add(static_cast<int>(salt % models[0]->n_classes()), 2);
    job.mini_batch = 4;
    return job;
  }

  std::vector<std::unique_ptr<nn::Sequential>> models;
  std::vector<core::ModelId> ids;
  std::unique_ptr<ConcurrentFleetServer> server;
};

TEST(ConcurrentServerTest, RejectsZeroPlannerThreads) {
  RuntimeConfig runtime;
  runtime.planner_threads = 0;
  EXPECT_THROW(ConcurrentFleetServer{runtime}, std::invalid_argument);
}

TEST(ConcurrentServerTest, MultiPlannerHostMatchesSinglePlannerBitwise) {
  // Sessions shard across planners by id; every session's jobs are staged
  // against version 0 while the planners are parked, so each session's
  // fold sequence is fully determined — any planner count must reproduce
  // the single-planner parameters bit for bit, per tenant.
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kJobsPerTenant = 8;
  auto run = [&](std::size_t planners) {
    RuntimeConfig runtime;
    runtime.start_paused = true;
    runtime.planner_threads = planners;
    runtime.aggregation_shards = 2;
    runtime.max_drain_batch = 3;
    HostEnv env(runtime, kTenants);
    for (std::size_t i = 0; i < kJobsPerTenant; ++i) {
      for (const core::ModelId id : env.ids) {
        GradientJob job = env.varied_job(id, 0, i);
        EXPECT_TRUE(env.server->try_submit(job).accepted);
      }
    }
    env.server->resume();
    env.server->drain();
    for (const core::ModelId id : env.ids) {
      const auto stats = env.server->stats(id);
      EXPECT_EQ(stats.processed, kJobsPerTenant) << "session " << id;
      EXPECT_EQ(stats.planner_threads, planners);
    }
    env.server->stop();
    std::vector<std::vector<float>> params;
    for (const auto& model : env.models) {
      const auto view = model->parameters_view();
      params.emplace_back(view.begin(), view.end());
    }
    return params;
  };

  const auto reference = run(1);
  for (const std::size_t planners : {2u, 3u, 4u}) {
    const auto got = run(planners);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t m = 0; m < reference.size(); ++m) {
      ASSERT_EQ(got[m].size(), reference[m].size());
      EXPECT_EQ(0, std::memcmp(got[m].data(), reference[m].data(),
                               reference[m].size() * sizeof(float)))
          << "planners=" << planners << " tenant=" << m;
    }
  }
}

TEST(ConcurrentServerTest, AdaptiveBatchingIsBitwiseInvisibleAndSurfaced) {
  // The adaptive controller only moves the drain-batch limit, and batch
  // size never changes a session's fold sequence — so adaptive mode must
  // reproduce the pinned-batch parameters exactly while its stats surface
  // through RuntimeStats.
  auto run = [](bool adaptive, AdaptiveBatcher::Stats* out_totals,
                std::size_t* out_limits) {
    RuntimeConfig runtime;
    runtime.start_paused = true;
    runtime.planner_threads = 2;
    runtime.max_drain_batch = 2;
    if (adaptive) {
      runtime.adaptive_batch.enabled = true;
      runtime.adaptive_batch.min_batch = 2;
      runtime.adaptive_batch.max_batch = 16;
      runtime.adaptive_batch.window = 1;
      runtime.adaptive_batch.hysteresis = 1;
    }
    HostEnv env(runtime, 2);
    for (std::size_t i = 0; i < 24; ++i) {
      for (const core::ModelId id : env.ids) {
        GradientJob job = env.varied_job(id, 0, i);
        EXPECT_TRUE(env.server->try_submit(job).accepted);
      }
    }
    env.server->resume();
    env.server->drain();
    const auto stats = env.server->stats(env.ids[0]);
    if (adaptive) {
      EXPECT_EQ(stats.planner_batch_limits.size(), 2u);
      for (const std::size_t limit : stats.planner_batch_limits) {
        EXPECT_GE(limit, 2u);
        EXPECT_LE(limit, 16u);
      }
      if (out_totals != nullptr) {
        out_totals->widenings = stats.adaptive_widenings;
        out_totals->narrowings = stats.adaptive_narrowings;
      }
      if (out_limits != nullptr) {
        *out_limits = stats.planner_batch_limits.size();
      }
    } else {
      EXPECT_TRUE(stats.planner_batch_limits.empty());
      EXPECT_EQ(stats.adaptive_widenings, 0u);
    }
    env.server->stop();
    std::vector<float> params;
    for (const auto& model : env.models) {
      const auto view = model->parameters_view();
      params.insert(params.end(), view.begin(), view.end());
    }
    return params;
  };

  const auto pinned = run(false, nullptr, nullptr);
  AdaptiveBatcher::Stats totals;
  std::size_t limit_count = 0;
  const auto adapted = run(true, &totals, &limit_count);
  ASSERT_EQ(adapted.size(), pinned.size());
  EXPECT_EQ(0, std::memcmp(adapted.data(), pinned.data(),
                           pinned.size() * sizeof(float)));
  // A 24-deep staged backlog against a starting limit of 2 with window =
  // hysteresis = 1 must widen on the first control window.
  EXPECT_GE(totals.widenings, 1u);
  EXPECT_EQ(limit_count, 2u);
}

TEST(ConcurrentServerTest, ImpossiblePinFallsBackUnpinnedAndCountsIt) {
  RuntimeConfig runtime;
  runtime.pin_fold_workers = true;
  runtime.planner_threads = 1;
  // CPU index no machine has: the pin is refused deterministically, on
  // every platform, and the host must degrade to unpinned operation.
  runtime.placement_override = {1 << 20};
  runtime.telemetry.enabled = true;
  ServerEnv env(runtime);

  GradientJob job = env.unit_job(0);
  ASSERT_TRUE(env.server->try_submit(job).accepted);
  env.server->drain();
  const auto stats = env.server->stats();
  EXPECT_EQ(stats.processed, 1u);  // degraded, not broken
  EXPECT_FALSE(stats.pinning_applied);
  const auto metrics = env.server->telemetry()->metrics().snapshot();
  EXPECT_GE(metrics.counter("server.pinning_fallback"), 1u);
  env.server->stop();
}

TEST(ConcurrentServerTest, SupportedPinIsAppliedAndReported) {
  // Probe whether this environment lets us pin to CPU 0 at all (cpusets
  // and non-Linux hosts legitimately refuse — that path is covered by the
  // fallback test above).
  {
    std::atomic<bool> release{false};
    std::thread probe([&release] {
      while (!release.load()) std::this_thread::yield();
    });
    const bool can_pin =
        affinity_supported() && pin_thread_to_cpu(probe.native_handle(), 0);
    release.store(true);
    probe.join();
    if (!can_pin) GTEST_SKIP() << "CPU affinity unavailable here";
  }

  RuntimeConfig runtime;
  runtime.pin_fold_workers = true;
  runtime.planner_threads = 1;
  runtime.placement_override = {0};
  runtime.telemetry.enabled = true;
  ServerEnv env(runtime);
  EXPECT_TRUE(env.server->stats().pinning_applied);
  const auto metrics = env.server->telemetry()->metrics().snapshot();
  EXPECT_EQ(metrics.counter("server.pinning_fallback"), 0u);
  env.server->stop();
}

TEST(ConcurrentServerTest, UnpinnedHostReportsPinningNotApplied) {
  ServerEnv env;  // pin_fold_workers defaults to false
  EXPECT_FALSE(env.server->stats().pinning_applied);
  EXPECT_EQ(env.server->stats().planner_threads, 1u);
  env.server->stop();
}

}  // namespace
}  // namespace fleet::runtime
