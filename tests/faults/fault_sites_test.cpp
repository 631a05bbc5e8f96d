// Per-site blast radius of the injected faults inside the live serving
// stack (DESIGN.md §14): each site produces exactly what the design
// promises — a transient receipt, one degraded session, a delayed planner,
// a respawned ingest thread — never a crash, never a hole in the ledgers.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "fleet/net/ingest.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "fleet/runtime/fault.hpp"

namespace fleet::runtime {
namespace {

using test::pretrained_iprof;

core::ServerConfig server_config() {
  core::ServerConfig config;
  config.learning_rate = 0.1f;
  return config;
}

/// Parameter-index-varied gradient (the net suite's idiom) so fold-order
/// mistakes change the model instead of cancelling out.
GradientJob varied_job(const nn::TrainableModel& model, core::ModelId id,
                       std::size_t salt) {
  GradientJob job;
  job.model_id = id;
  job.task_version = 0;
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

void expect_finite(nn::TrainableModel& model) {
  for (const float v : model.parameters_view()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(FaultSitesTest, QueueFullInjectionYieldsRetryableReceiptsThenRecovers) {
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(3);
  FaultInjector fault(11);
  FaultPlan plan;
  plan.site = FaultSite::kQueueFull;
  plan.every = 1;
  plan.max_fires = 3;
  fault.arm(plan);
  RuntimeConfig runtime;
  runtime.fault_injector = &fault;
  ConcurrentFleetServer server(*model, pretrained_iprof(), server_config(),
                               runtime);
  // The first three submits hit injected backpressure: rejected, retryable,
  // not shed — indistinguishable from a genuinely full queue, and the job
  // is left intact for the retry.
  GradientJob job = varied_job(*model, core::kDefaultModelId, 1);
  for (int i = 0; i < 3; ++i) {
    const core::GradientReceipt receipt = server.try_submit(job);
    EXPECT_FALSE(receipt.accepted);
    EXPECT_TRUE(receipt.retryable);
    EXPECT_FALSE(receipt.shed);
    ASSERT_FALSE(job.gradient.empty());
  }
  // Budget exhausted: the same retried job now lands.
  EXPECT_TRUE(server.try_submit(job).accepted);
  server.drain();
  EXPECT_EQ(fault.fires(FaultSite::kQueueFull), 3u);
  EXPECT_EQ(server.stats().processed, 1u);
  EXPECT_EQ(server.stats().shed_drops, 0u);
  server.stop();
}

TEST(FaultSitesTest, FoldTaskQuarantineDegradesOnlyTheFailingSession) {
  // Every shard count runs plans as pool tasks, so a single-lane host
  // (the planner folds inline) quarantines exactly like a sharded one.
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FaultInjector fault(5);
    FaultPlan plan;
    plan.site = FaultSite::kFoldTask;
    plan.every = 1;
    plan.max_fires = 1;  // exactly the first fold span task thrown
    fault.arm(plan);
    RuntimeConfig runtime;
    runtime.aggregation_shards = shards;
    runtime.start_paused = true;
    runtime.fault_injector = &fault;
    ConcurrentFleetServer host(runtime);
    auto model_a = nn::zoo::mlp(8, 4, 3);
    model_a->init(7);
    auto model_b = nn::zoo::mlp(8, 4, 3);
    model_b->init(19);
    const core::ModelId id_a =
        host.register_model(*model_a, pretrained_iprof(), server_config());
    const core::ModelId id_b =
        host.register_model(*model_b, pretrained_iprof(), server_config());

    // Stage A-only jobs first so the single budgeted fault can only land in
    // A's fold plan, then resume and drain that batch.
    for (std::size_t i = 0; i < 3; ++i) {
      GradientJob job = varied_job(*model_a, id_a, i);
      ASSERT_TRUE(host.try_submit(job).accepted);
    }
    host.resume();
    host.drain();

    // The host keeps serving after the quarantine: B trains cleanly, and A
    // itself still accepts and folds further work (degraded, not dead).
    for (std::size_t i = 0; i < 4; ++i) {
      GradientJob job_b = varied_job(*model_b, id_b, i);
      ASSERT_TRUE(host.try_submit(job_b).accepted);
    }
    GradientJob more_a = varied_job(*model_a, id_a, 9);
    ASSERT_TRUE(host.try_submit(more_a).accepted);
    host.drain();

    EXPECT_EQ(fault.fires(FaultSite::kFoldTask), 1u);
    const HealthSnapshot health = host.health();
    EXPECT_EQ(health.fold_quarantines, 1u);
    ASSERT_EQ(health.degraded_sessions.size(), 1u);
    EXPECT_EQ(health.degraded_sessions[0], id_a);
    EXPECT_TRUE(host.stats(id_a).degraded);
    EXPECT_FALSE(host.stats(id_b).degraded);
    EXPECT_EQ(host.stats(id_a).degraded_sessions, 1u);
    EXPECT_EQ(host.stats(id_a).processed, 4u);
    EXPECT_EQ(host.stats(id_b).processed, 4u);
    host.stop();
    // A's arena may hold a partial fold, but never a poisoned value.
    expect_finite(*model_a);
    expect_finite(*model_b);
  }
}

TEST(FaultSitesTest, PlannerStallDelaysButNeverDropsABatch) {
  FaultInjector fault(13);
  FaultPlan plan;
  plan.site = FaultSite::kPlannerStall;
  plan.every = 1;
  plan.payload = 50;  // bounded spin-yields, not a clock
  fault.arm(plan);
  RuntimeConfig runtime;
  runtime.planner_threads = 2;
  runtime.fault_injector = &fault;
  ConcurrentFleetServer host(runtime);
  auto model_a = nn::zoo::mlp(8, 4, 3);
  model_a->init(7);
  auto model_b = nn::zoo::mlp(8, 4, 3);
  model_b->init(19);
  const core::ModelId id_a =
      host.register_model(*model_a, pretrained_iprof(), server_config());
  const core::ModelId id_b =
      host.register_model(*model_b, pretrained_iprof(), server_config());
  for (std::size_t i = 0; i < 6; ++i) {
    GradientJob job_a = varied_job(*model_a, id_a, i);
    ASSERT_TRUE(host.try_submit(job_a).accepted);
    GradientJob job_b = varied_job(*model_b, id_b, i);
    ASSERT_TRUE(host.try_submit(job_b).accepted);
  }
  host.drain();
  // Stalls fired, yet every gradient was processed and both planners made
  // progress — a stall is a delay, never a loss.
  EXPECT_GT(fault.fires(FaultSite::kPlannerStall), 0u);
  EXPECT_EQ(host.stats(id_a).processed, 6u);
  EXPECT_EQ(host.stats(id_b).processed, 6u);
  const HealthSnapshot health = host.health();
  ASSERT_EQ(health.planner_progress.size(), 2u);
  EXPECT_GT(health.planner_progress[0], 0u);
  EXPECT_GT(health.planner_progress[1], 0u);
  host.stop();
}

TEST(FaultSitesTest, InjectorDeathIsHealedByACountedRespawn) {
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(3);
  FaultInjector fault(17);
  FaultPlan plan;
  plan.site = FaultSite::kInjectorDeath;
  plan.every = 2;
  plan.max_fires = 3;
  fault.arm(plan);
  RuntimeConfig runtime;
  ConcurrentFleetServer server(*model, pretrained_iprof(), server_config(),
                               runtime);
  net::LoopbackIngest::Config cfg;
  cfg.injector_threads = 2;
  cfg.fault = &fault;
  net::LoopbackIngest ingest(server, cfg);
  std::vector<std::uint8_t> frame;
  constexpr std::size_t kFrames = 30;
  for (std::size_t i = 0; i < kFrames; ++i) {
    net::encode_job(varied_job(*model, core::kDefaultModelId, i),
                    net::PayloadKind::kInt8, frame);
    while (!ingest.try_send(frame)) std::this_thread::yield();
  }
  ingest.drain();
  server.drain();
  ingest.close();
  const net::IngestStats stats = ingest.stats();
  // Every death respawned, every frame delivered: a killed injector dies
  // before popping, so no frame is ever lost to a death.
  EXPECT_EQ(fault.fires(FaultSite::kInjectorDeath), 3u);
  EXPECT_EQ(stats.injector_restarts, 3u);
  EXPECT_EQ(stats.frames_sent, kFrames);
  EXPECT_EQ(stats.frames_submitted, kFrames);
  EXPECT_EQ(stats.wire_rejects, 0u);
  EXPECT_EQ(stats.server_rejects, 0u);
  EXPECT_EQ(stats.shed_drops, 0u);
  EXPECT_EQ(server.stats().processed, kFrames);
  server.stop();
}

TEST(FaultSitesTest, WireCorruptionSweepKeepsTheLedgerExactAcross50Seeds) {
  constexpr std::size_t kFrames = 20;
  std::uint64_t total_corrupted = 0;
  std::uint64_t total_wire_rejects = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    auto model = nn::zoo::mlp(8, 4, 3);
    model->init(seed + 1);
    FaultInjector fault(seed);
    FaultPlan plan;
    plan.site = FaultSite::kWireCorrupt;
    plan.probability = 0.3;
    fault.arm(plan);
    ConcurrentFleetServer server(*model, pretrained_iprof(), server_config());
    net::LoopbackIngest::Config cfg;
    cfg.injector_threads = 1;
    cfg.fault = &fault;
    net::LoopbackIngest ingest(server, cfg);
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < kFrames; ++i) {
      net::encode_job(varied_job(*model, core::kDefaultModelId, i),
                      net::PayloadKind::kInt8, frame);
      while (!ingest.try_send(frame)) std::this_thread::yield();
    }
    ingest.drain();
    server.drain();
    ingest.close();
    const net::IngestStats stats = ingest.stats();
    // The four-bucket identity is exact for every seed: a corrupted frame
    // either decode-rejects or decodes to something the host folds —
    // either way it lands in exactly one bucket.
    EXPECT_EQ(stats.frames_sent, kFrames) << "seed " << seed;
    EXPECT_EQ(stats.frames_submitted + stats.wire_rejects +
                  stats.server_rejects + stats.shed_drops,
              stats.frames_sent)
        << "seed " << seed;
    EXPECT_EQ(stats.frames_corrupted, fault.fires(FaultSite::kWireCorrupt));
    EXPECT_LE(stats.wire_rejects + stats.server_rejects,
              stats.frames_corrupted);
    EXPECT_GE(stats.frames_submitted, kFrames - stats.frames_corrupted);
    server.stop();
    expect_finite(*model);
    total_corrupted += stats.frames_corrupted;
    total_wire_rejects += stats.wire_rejects;
  }
  // The sweep actually exercised both corruption outcomes somewhere.
  EXPECT_GT(total_corrupted, 0u);
  EXPECT_GT(total_wire_rejects, 0u);
}

TEST(FaultSitesTest, RetryBudgetExhaustionTurnsBackpressureIntoGiveUps) {
  // A wedged host (paused, tiny queue) used to spin submit_frame forever;
  // the attempt budget now bounds it: the frame is given up and counted a
  // server reject, and ingest.drain() returns instead of hanging.
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(3);
  RuntimeConfig runtime;
  runtime.queue_capacity = 2;
  runtime.queue_shards = 1;
  runtime.start_paused = true;
  ConcurrentFleetServer server(*model, pretrained_iprof(), server_config(),
                               runtime);
  net::LoopbackIngest::Config cfg;
  cfg.injector_threads = 1;
  cfg.max_submit_attempts = 4;
  net::LoopbackIngest ingest(server, cfg);
  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < 5; ++i) {
    net::encode_job(varied_job(*model, core::kDefaultModelId, i),
                    net::PayloadKind::kInt8, frame);
    while (!ingest.try_send(frame)) std::this_thread::yield();
  }
  ingest.drain();  // terminates BECAUSE the budget is finite
  const net::IngestStats stats = ingest.stats();
  EXPECT_EQ(stats.frames_sent, 5u);
  EXPECT_EQ(stats.frames_submitted, 2u);
  EXPECT_EQ(stats.server_rejects, 3u);
  EXPECT_GT(stats.backpressure_retries, 0u);
  EXPECT_EQ(stats.frames_submitted + stats.wire_rejects +
                stats.server_rejects + stats.shed_drops,
            stats.frames_sent);
  server.resume();
  server.drain();
  EXPECT_EQ(server.stats().processed, 2u);
  ingest.close();
  server.stop();
}

}  // namespace
}  // namespace fleet::runtime
