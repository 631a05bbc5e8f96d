// Multi-tenant runtime (DESIGN.md §7): several ModelSessions behind one
// ConcurrentFleetServer host must train exactly as solo servers would —
// per session, bitwise — while sharing the ingest queue, the aggregation
// thread and the sharded fold pool. Plus registry lifecycle: retiring a
// session with gradients still queued drops and counts them, never folds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "fleet/data/partition.hpp"
#include "fleet/data/synthetic_images.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/runtime/parallel_fleet.hpp"

namespace fleet::runtime {
namespace {

using test::bitwise_equal;
using test::param_hash;
using test::pretrained_iprof;

core::ServerConfig server_config() {
  core::ServerConfig config;
  config.learning_rate = 0.1f;
  return config;
}

/// A job with parameter-index-varied gradient values, so fold-order or
/// span-partition mistakes change the model instead of cancelling out.
GradientJob varied_job(const nn::TrainableModel& model, core::ModelId id,
                       std::size_t task_version, std::size_t salt) {
  GradientJob job;
  job.model_id = id;
  job.task_version = task_version;
  job.gradient.resize(model.parameter_count());
  for (std::size_t i = 0; i < job.gradient.size(); ++i) {
    job.gradient[i] =
        0.001f * static_cast<float>((i * 7 + salt * 13) % 23) - 0.01f;
  }
  job.label_dist = stats::LabelDistribution(model.n_classes());
  job.label_dist.add(static_cast<int>(salt % model.n_classes()), 2);
  job.mini_batch = 4;
  return job;
}

std::vector<float> params_of(nn::TrainableModel& model) {
  const auto view = model.parameters_view();
  return std::vector<float>(view.begin(), view.end());
}

/// Solo reference: one model on a single-model server (the PR-2/3 shim),
/// fed `n_jobs` staged varied jobs, all against version 0.
std::vector<float> solo_run(std::size_t n_jobs, std::uint64_t init_seed,
                            const RuntimeConfig& base) {
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(init_seed);
  RuntimeConfig runtime = base;
  runtime.start_paused = true;
  ConcurrentFleetServer server(*model, pretrained_iprof(), server_config(),
                               runtime);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    GradientJob job = varied_job(*model, core::kDefaultModelId, 0, i);
    EXPECT_TRUE(server.try_submit(job).accepted);
  }
  server.resume();
  server.drain();
  server.stop();
  return params_of(*model);
}

TEST(MultiTenantTest, InterleavedSessionsMatchSoloRunsBitwise) {
  // The isolation matrix: two sessions trained interleaved through one
  // host, across {1,4} aggregation shards x {1,8} drain batches — each
  // final model must be bitwise identical to its solo-server run.
  constexpr std::size_t kJobsA = 12;
  constexpr std::size_t kJobsB = 9;
  for (const std::size_t shards : {1u, 4u}) {
    for (const std::size_t batch : {1u, 8u}) {
      RuntimeConfig base;
      base.aggregation_shards = shards;
      base.max_drain_batch = batch;
      const auto ref_a = solo_run(kJobsA, 7, base);
      const auto ref_b = solo_run(kJobsB, 19, base);

      auto model_a = nn::zoo::mlp(8, 4, 3);
      model_a->init(7);
      auto model_b = nn::zoo::mlp(8, 4, 3);
      model_b->init(19);
      RuntimeConfig runtime = base;
      runtime.start_paused = true;
      ConcurrentFleetServer host(runtime);
      const core::ModelId id_a =
          host.register_model(*model_a, pretrained_iprof(), server_config());
      const core::ModelId id_b =
          host.register_model(*model_b, pretrained_iprof(), server_config());

      // Interleave admissions A,B,A,B,... — per session the relative order
      // (and so every weight, fold and staleness) matches its solo run.
      for (std::size_t i = 0; i < std::max(kJobsA, kJobsB); ++i) {
        if (i < kJobsA) {
          GradientJob job = varied_job(*model_a, id_a, 0, i);
          ASSERT_TRUE(host.try_submit(job).accepted);
        }
        if (i < kJobsB) {
          GradientJob job = varied_job(*model_b, id_b, 0, i);
          ASSERT_TRUE(host.try_submit(job).accepted);
        }
      }
      host.resume();
      host.drain();

      // Per-session clocks and stats evolved independently.
      EXPECT_EQ(host.version(id_a), kJobsA);
      EXPECT_EQ(host.version(id_b), kJobsB);
      const auto stats_a = host.stats(id_a);
      const auto stats_b = host.stats(id_b);
      EXPECT_EQ(stats_a.processed, kJobsA);
      EXPECT_EQ(stats_b.processed, kJobsB);
      // All of A's jobs target version 0 and K = 1, so A's taus are
      // exactly 0..11 however B's jobs interleave: counts[k] holds tau == k
      // (unit buckets up to 8) and 9..11 land in (8, 12].
      std::vector<std::uint64_t> expected(stats_a.staleness_hist.counts.size(),
                                          0);
      for (std::size_t k = 0; k <= 8; ++k) expected[k] = 1;
      expected[9] = 3;
      EXPECT_EQ(stats_a.staleness_hist.counts, expected);
      EXPECT_EQ(stats_a.staleness_hist.sum, 66.0);
      EXPECT_EQ(stats_a.staleness_hist.min, 0.0);
      EXPECT_EQ(stats_a.staleness_hist.max, 11.0);
      host.stop();

      EXPECT_TRUE(bitwise_equal(ref_a, params_of(*model_a)))
          << "A diverged: shards=" << shards << " batch=" << batch;
      EXPECT_TRUE(bitwise_equal(ref_b, params_of(*model_b)))
          << "B diverged: shards=" << shards << " batch=" << batch;
    }
  }
}

TEST(MultiTenantTest, RegistryLifecycle) {
  ConcurrentFleetServer host{RuntimeConfig{}};
  EXPECT_TRUE(host.model_ids().empty());
  EXPECT_THROW(host.stats(), std::out_of_range);
  EXPECT_THROW(host.version(0), std::out_of_range);

  auto model_a = nn::zoo::mlp(8, 4, 3);
  model_a->init(1);
  auto model_b = nn::zoo::mlp(8, 4, 3);
  model_b->init(2);
  const auto id_a =
      host.register_model(*model_a, pretrained_iprof(), server_config());
  const auto id_b =
      host.register_model(*model_b, pretrained_iprof(), server_config());
  EXPECT_EQ(id_a, core::kDefaultModelId);
  EXPECT_EQ(id_b, id_a + 1);
  EXPECT_EQ(host.model_ids(), (std::vector<core::ModelId>{id_a, id_b}));
  ASSERT_NE(host.session(id_b), nullptr);
  EXPECT_EQ(host.session(id_b)->id(), id_b);

  // Requests for unknown ids reject without touching any session.
  const auto rejected = host.handle_request(
      42, profiler::DeviceFeatures{}, "none", stats::LabelDistribution(3));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.model_id, 42u);

  // Retire B: lookups miss, submits reject permanently, ids shrink.
  EXPECT_TRUE(host.retire_model(id_b));
  EXPECT_FALSE(host.retire_model(id_b));  // already gone
  EXPECT_EQ(host.session(id_b), nullptr);
  EXPECT_EQ(host.model_ids(), (std::vector<core::ModelId>{id_a}));
  GradientJob job = varied_job(*model_b, id_b, 0, 0);
  const auto receipt = host.try_submit(job);
  EXPECT_FALSE(receipt.accepted);
  EXPECT_FALSE(receipt.retryable);
  EXPECT_EQ(receipt.model_id, id_b);

  // Re-registration gets a fresh id, never recycles a retired one.
  const auto id_c =
      host.register_model(*model_b, pretrained_iprof(), server_config());
  EXPECT_EQ(id_c, id_b + 1);
  host.stop();
}

TEST(MultiTenantTest, RetireWithQueuedGradientsDropsAndCountsThem) {
  // Gradients sitting in the queue when their session is retired must be
  // dropped and counted — the model is never touched — while the other
  // session's jobs in the same batch fold normally and drain() still
  // accounts for everything accepted.
  for (const std::size_t shards : {1u, 2u}) {
    RuntimeConfig runtime;
    runtime.start_paused = true;
    runtime.aggregation_shards = shards;
    ConcurrentFleetServer host(runtime);

    auto model_a = nn::zoo::mlp(8, 4, 3);
    model_a->init(1);
    auto model_b = nn::zoo::mlp(8, 4, 3);
    model_b->init(2);
    const auto id_a =
        host.register_model(*model_a, pretrained_iprof(), server_config());
    const auto id_b =
        host.register_model(*model_b, pretrained_iprof(), server_config());

    for (std::size_t i = 0; i < 3; ++i) {
      GradientJob job = varied_job(*model_a, id_a, 0, i);
      ASSERT_TRUE(host.try_submit(job).accepted);
    }
    for (std::size_t i = 0; i < 2; ++i) {
      GradientJob job = varied_job(*model_b, id_b, 0, i);
      ASSERT_TRUE(host.try_submit(job).accepted);
    }
    const auto frozen_b = params_of(*model_b);
    ASSERT_TRUE(host.retire_model(id_b));

    host.resume();
    host.drain();  // must complete although two accepted jobs were dropped
    const auto stats = host.stats(id_a);
    EXPECT_EQ(stats.processed, 3u);
    EXPECT_EQ(stats.retired_drops, 2u);
    // The id-free host view reports the drops too — the fallback a caller
    // uses once every session it drove has been retired.
    EXPECT_EQ(host.host_stats().retired_drops, 2u);
    EXPECT_EQ(host.version(id_a), 3u);
    // The retired model was never folded into.
    EXPECT_TRUE(bitwise_equal(frozen_b, params_of(*model_b)))
        << "shards=" << shards;
    host.stop();
  }
}

/// Solo reference with seeded dropout churn: jobs whose (session_seed, i)
/// draw says "dropped" are never submitted — the same churn pattern the
/// stress test applies on the host, so the reference sees the identical
/// surviving sequence.
bool churn_drops(std::uint64_t session_seed, std::size_t i) {
  stats::Rng rng = stats::Rng::stream(session_seed, i);
  return rng.uniform() < 0.2;
}

std::vector<float> solo_run_with_churn(std::size_t n_jobs,
                                       std::uint64_t init_seed,
                                       std::uint64_t churn_seed,
                                       const RuntimeConfig& base) {
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(init_seed);
  RuntimeConfig runtime = base;
  runtime.start_paused = true;
  ConcurrentFleetServer server(*model, pretrained_iprof(), server_config(),
                               runtime);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    if (churn_drops(churn_seed, i)) continue;
    GradientJob job = varied_job(*model, core::kDefaultModelId, 0, i);
    EXPECT_TRUE(server.try_submit(job).accepted);
  }
  server.resume();
  server.drain();
  server.stop();
  return params_of(*model);
}

TEST(MultiTenantTest, ConcurrentFoldStressStaysBitwiseUnderChurnAndRetire) {
  // Fold-scheduler stress (DESIGN.md §9): four mixed tenants — two sizes
  // of model — driven by one producer thread each, concurrently, with
  // dropout churn, while a fifth session is retired mid-drain. The four
  // surviving sessions' final models must be bitwise identical to their
  // solo runs; the host's accounting must settle despite the mid-flight
  // retirement.
  constexpr std::size_t kJobs = 48;
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t batch : {0u, 8u}) {
      RuntimeConfig base;
      base.aggregation_shards = shards;
      base.max_drain_batch = batch;

      std::vector<std::vector<float>> refs;
      for (std::size_t m = 0; m < 4; ++m) {
        refs.push_back(solo_run_with_churn(kJobs, 7 + m, 1000 + m, base));
      }

      std::vector<std::unique_ptr<nn::Sequential>> models;
      for (std::size_t m = 0; m < 4; ++m) {
        models.push_back(nn::zoo::mlp(8, 4, 3));
        models.back()->init(7 + m);
      }
      // The doomed tenant is a different shape — retiring it mid-drain
      // must not disturb the differently-partitioned survivors.
      auto doomed = nn::zoo::mlp(16, 6, 5);
      doomed->init(99);

      ConcurrentFleetServer host(base);
      std::vector<core::ModelId> ids;
      for (auto& model : models) {
        ids.push_back(
            host.register_model(*model, pretrained_iprof(), server_config()));
      }
      const core::ModelId doomed_id =
          host.register_model(*doomed, pretrained_iprof(), server_config());

      // One producer thread per tenant — per-session admission order is
      // each thread's program order, which is all determinism needs; the
      // cross-tenant interleaving is whatever the scheduler makes of it.
      std::vector<std::thread> producers;
      for (std::size_t m = 0; m < 4; ++m) {
        producers.emplace_back([&, m] {
          for (std::size_t i = 0; i < kJobs; ++i) {
            if (churn_drops(1000 + m, i)) continue;
            GradientJob job = varied_job(*models[m], ids[m], 0, i);
            while (!host.try_submit(job).accepted) {
              std::this_thread::yield();
            }
          }
        });
      }
      std::atomic<std::size_t> doomed_accepted{0};
      producers.emplace_back([&] {
        for (std::size_t i = 0; i < kJobs; ++i) {
          GradientJob job = varied_job(*doomed, doomed_id, 0, i);
          const auto receipt = host.try_submit(job);
          if (receipt.accepted) {
            doomed_accepted.fetch_add(1, std::memory_order_relaxed);
          } else if (!receipt.retryable) {
            return;  // retired underneath us: permanent reject
          }
        }
      });
      // Retire the fifth tenant while drains are in full flight.
      host.retire_model(doomed_id);
      for (auto& producer : producers) producer.join();

      host.drain();  // settles even though some accepted jobs were dropped
      for (std::size_t m = 0; m < 4; ++m) {
        EXPECT_EQ(host.stats(ids[m]).invalid_jobs, 0u);
      }
      // The retire cut is batch-granular: accepted doomed jobs either
      // folded before the cut or were dropped and counted, never lost.
      EXPECT_EQ(host.session(doomed_id), nullptr);
      EXPECT_LE(host.host_stats().retired_drops, doomed_accepted.load());
      host.stop();

      for (std::size_t m = 0; m < 4; ++m) {
        EXPECT_TRUE(bitwise_equal(refs[m], params_of(*models[m])))
            << "tenant " << m << " diverged: shards=" << shards
            << " batch=" << batch;
      }
    }
  }
}

TEST(MultiTenantTest, SteadyStateDrainsReuseHotPathBuffers) {
  // The demux slots and fold-plan buffers must stop allocating once
  // warmed: drive two identical waves and require the growth counter to
  // hold still across the second (DESIGN.md §9 hot-path contract).
  // A single-lane host runs the same plan->fold path, inline on the
  // planner.
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RuntimeConfig runtime;
    runtime.aggregation_shards = shards;
    runtime.max_drain_batch = 8;
    runtime.start_paused = true;
    ConcurrentFleetServer host(runtime);

    auto model_a = nn::zoo::mlp(8, 4, 3);
    model_a->init(1);
    auto model_b = nn::zoo::mlp(8, 4, 3);
    model_b->init(2);
    const auto id_a =
        host.register_model(*model_a, pretrained_iprof(), server_config());
    const auto id_b =
        host.register_model(*model_b, pretrained_iprof(), server_config());

    const auto wave = [&] {
      for (std::size_t i = 0; i < 24; ++i) {
        GradientJob job_a = varied_job(*model_a, id_a, 0, i);
        ASSERT_TRUE(host.try_submit(job_a).accepted);
        GradientJob job_b = varied_job(*model_b, id_b, 0, i);
        ASSERT_TRUE(host.try_submit(job_b).accepted);
      }
      host.resume();
      host.drain();
      host.pause();
    };

    wave();
    const std::size_t after_warmup = host.host_stats().fold_buffer_growths;
    wave();
    EXPECT_EQ(host.host_stats().fold_buffer_growths, after_warmup)
        << "the aggregation hot path allocated during a steady-state wave";
    // The gauges surface through per-session stats too, and the fold
    // scheduler's occupancy counters moved.
    EXPECT_EQ(host.stats(id_a).fold_buffer_growths, after_warmup);
    EXPECT_GT(host.host_stats().fold_tasks_executed, 0u);
    EXPECT_GE(host.host_stats().fold_peak_pending, 1u);
    EXPECT_GE(host.host_stats().queue_max_depth_seen, 8u);
    host.stop();
  }
}

/// Mixed-workload fleet fixture: six CNN workers over one host, the first
/// three assigned to model A, the last three to model B. `active_*` turn a
/// tenant's workers off by pointing them at an unregistered id (their
/// requests are rejected, they compute nothing, draw nothing) — which is
/// how we isolate one session's drive while keeping every worker's
/// RNG-stream index identical across runs.
struct MixedFleetRun {
  std::uint64_t hash_a = 0;
  std::uint64_t hash_b = 0;
  ParallelFleet::Stats stats;
};

MixedFleetRun run_mixed_fleet(bool active_a, bool active_b,
                              std::size_t n_threads,
                              const RuntimeConfig& runtime) {
  static const data::TrainTestSplit split = data::generate_synthetic_images([] {
    data::SyntheticImageConfig cfg;
    cfg.n_classes = 4;
    cfg.n_train = 240;
    cfg.n_test = 40;
    return cfg;
  }());

  auto model_a = nn::zoo::small_cnn(1, 14, 14, 4);
  model_a->init(1);
  auto model_b = nn::zoo::small_cnn(1, 14, 14, 4);
  model_b->init(2);
  core::ServerConfig config;
  config.learning_rate = 0.05f;
  ConcurrentFleetServer host(runtime);
  const auto id_a = host.register_model(*model_a, pretrained_iprof(), config);
  const auto id_b = host.register_model(*model_b, pretrained_iprof(), config);
  constexpr core::ModelId kInertId = 99;  // never registered: rejects

  stats::Rng rng(2);
  const auto partition = data::partition_iid(split.train.size(), 6, rng);
  const auto fleet = device::lab_fleet();
  std::vector<core::FleetWorker> workers;
  std::vector<core::ModelId> worker_models;
  for (std::size_t u = 0; u < partition.size(); ++u) {
    auto replica = nn::zoo::small_cnn(1, 14, 14, 4);
    replica->init(1);
    workers.emplace_back(static_cast<int>(u), std::move(replica), split.train,
                         partition[u], device::spec(fleet[u % fleet.size()]),
                         100 + u);
    const bool first_half = u < partition.size() / 2;
    if (first_half) {
      worker_models.push_back(active_a ? id_a : kInertId);
    } else {
      worker_models.push_back(active_b ? id_b : kInertId);
    }
  }

  ParallelFleet::Config cfg;
  cfg.n_threads = n_threads;
  cfg.rounds = 4;
  cfg.max_arrival_delay = 2;
  cfg.dropout_prob = 0.2;
  cfg.seed = 11;
  cfg.worker_models = worker_models;
  ParallelFleet driver(host, workers, cfg);
  MixedFleetRun run;
  run.stats = driver.run();
  host.stop();
  run.hash_a = param_hash(model_a->parameters_view());
  run.hash_b = param_hash(model_b->parameters_view());
  return run;
}

TEST(MultiTenantTest, MixedFleetSessionsAreIsolatedAndThreadCountInvariant) {
  RuntimeConfig runtime;
  runtime.aggregation_shards = 2;
  runtime.max_drain_batch = 8;

  const MixedFleetRun both = run_mixed_fleet(true, true, 2, runtime);
  EXPECT_GT(both.stats.gradients_submitted, 0u);
  ASSERT_EQ(both.stats.per_model.size(), 2u);
  EXPECT_GT(both.stats.per_model[0].runtime.processed, 0u);
  EXPECT_GT(both.stats.per_model[1].runtime.processed, 0u);
  EXPECT_EQ(both.stats.runtime.processed, both.stats.gradients_submitted);

  // Isolation: a session's final model must not depend on whether the
  // OTHER tenant was training on the same host at the same time.
  const MixedFleetRun only_a = run_mixed_fleet(true, false, 2, runtime);
  const MixedFleetRun only_b = run_mixed_fleet(false, true, 2, runtime);
  EXPECT_EQ(both.hash_a, only_a.hash_a);
  EXPECT_EQ(both.hash_b, only_b.hash_b);
  // The solo run only drove one session (the inert workers' placeholder id
  // resolves to no session), and B really did train in the mixed run.
  ASSERT_EQ(only_a.stats.per_model.size(), 1u);
  EXPECT_EQ(only_a.stats.per_model[0].id, core::kDefaultModelId);
  EXPECT_NE(only_a.hash_b, both.hash_b);

  // Thread-count invariance holds for the mixed drive as a whole.
  const MixedFleetRun threads_1 = run_mixed_fleet(true, true, 1, runtime);
  const MixedFleetRun threads_4 = run_mixed_fleet(true, true, 4, runtime);
  EXPECT_EQ(threads_1.hash_a, threads_4.hash_a);
  EXPECT_EQ(threads_1.hash_b, threads_4.hash_b);
  EXPECT_EQ(threads_1.hash_a, both.hash_a);
  EXPECT_EQ(threads_1.hash_b, both.hash_b);
}

}  // namespace
}  // namespace fleet::runtime
