#include "fleet/runtime/parallel_fleet.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "../test_util.hpp"
#include "fleet/data/partition.hpp"
#include "fleet/data/synthetic_images.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/runtime/fault.hpp"

namespace fleet::runtime {
namespace {

using test::param_hash;
using test::pretrained_iprof;

/// Self-contained concurrent-serving environment, constructed identically
/// every time so determinism tests can compare independent instances.
struct FleetEnv {
  explicit FleetEnv(const RuntimeConfig& runtime = {})
      : split(data::generate_synthetic_images([] {
          data::SyntheticImageConfig cfg;
          cfg.n_classes = 4;
          cfg.n_train = 400;
          cfg.n_test = 100;
          return cfg;
        }())) {
    model = nn::zoo::small_cnn(1, 14, 14, 4);
    model->init(1);
    core::ServerConfig config;
    config.learning_rate = 0.05f;
    server = std::make_unique<ConcurrentFleetServer>(
        *model, pretrained_iprof(), config, runtime);

    stats::Rng rng(2);
    const auto partition = data::partition_iid(split.train.size(), 8, rng);
    const auto fleet = device::lab_fleet();
    for (std::size_t u = 0; u < partition.size(); ++u) {
      auto replica = nn::zoo::small_cnn(1, 14, 14, 4);
      replica->init(1);
      workers.emplace_back(static_cast<int>(u), std::move(replica),
                           split.train, partition[u],
                           device::spec(fleet[u % fleet.size()]), 100 + u);
    }
  }

  std::uint64_t run_and_hash(const ParallelFleet::Config& cfg,
                             ParallelFleet::Stats* out = nullptr) {
    ParallelFleet fleet(*server, workers, cfg);
    const auto stats = fleet.run();
    if (out != nullptr) *out = stats;
    server->stop();
    return param_hash(model->parameters_view());
  }

  data::TrainTestSplit split;
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<ConcurrentFleetServer> server;
  std::vector<core::FleetWorker> workers;
};

ParallelFleet::Config base_config() {
  ParallelFleet::Config cfg;
  cfg.n_threads = 2;
  cfg.rounds = 6;
  cfg.max_arrival_delay = 2;
  cfg.seed = 11;
  return cfg;
}

TEST(ParallelFleetTest, RunsAndUpdatesModel) {
  FleetEnv env;
  ParallelFleet::Stats stats;
  env.run_and_hash(base_config(), &stats);
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.gradients_submitted, 0u);
  EXPECT_EQ(stats.runtime.processed, stats.gradients_submitted);
  EXPECT_GT(stats.runtime.model_updates, 0u);
  EXPECT_EQ(stats.runtime.model_updates, env.server->version());
  EXPECT_EQ(stats.runtime.invalid_jobs, 0u);
}

TEST(ParallelFleetTest, StalenessEmergesFromArrivalDelay) {
  FleetEnv env;
  ParallelFleet::Stats stats;
  env.run_and_hash(base_config(), &stats);
  const auto& tau = stats.runtime.staleness_hist;
  ASSERT_GT(tau.count, 0u);
  EXPECT_EQ(tau.count, stats.runtime.processed);
  EXPECT_EQ(stats.runtime.weight_hist.count, stats.runtime.processed);
  EXPECT_GE(tau.min, 0.0);
  // Delayed arrivals land after other workers advanced the clock.
  EXPECT_GT(tau.max, 0.0);
  EXPECT_LT(tau.counts[0], tau.count);  // not every tau is 0
}

TEST(ParallelFleetTest, SameSeedSameThreadsIsBitwiseReproducible) {
  FleetEnv a;
  FleetEnv b;
  const auto hash_a = a.run_and_hash(base_config());
  const auto hash_b = b.run_and_hash(base_config());
  EXPECT_EQ(hash_a, hash_b);
}

TEST(ParallelFleetTest, FinalModelIsThreadCountInvariant) {
  // Stronger than the headline guarantee ("deterministic under a fixed
  // thread count"): the phase structure pins every order-sensitive step to
  // the driver or the aggregation thread, so thread count only changes who
  // computes, never what.
  FleetEnv serial;
  FleetEnv parallel;
  auto cfg = base_config();
  cfg.n_threads = 1;
  const auto hash_1 = serial.run_and_hash(cfg);
  cfg.n_threads = 4;
  const auto hash_4 = parallel.run_and_hash(cfg);
  EXPECT_EQ(hash_1, hash_4);
}

TEST(ParallelFleetTest, DropoutLosesGradientsButNotProgress) {
  FleetEnv env;
  auto cfg = base_config();
  cfg.dropout_prob = 0.5;
  cfg.rounds = 8;
  ParallelFleet::Stats stats;
  env.run_and_hash(cfg, &stats);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.gradients_submitted, 0u);
  EXPECT_EQ(stats.runtime.processed, stats.gradients_submitted);
}

TEST(ParallelFleetTest, FinalFlushDropsAreCountedSeparatelyFromRetries) {
  // A server stopped before the drive rejects every submit permanently
  // ("ingest queue closed", non-retryable). Mid-round rejections land in
  // rejected_submissions only; delayed gradients still in flight after the
  // last round are dropped by the final flush and must ALSO show up in the
  // final_flush_drops breakdown — the split this regression pins down.
  FleetEnv env;
  env.server->stop();
  auto cfg = base_config();
  cfg.n_threads = 1;
  cfg.rounds = 1;
  cfg.max_arrival_delay = 3;
  ParallelFleet::Stats stats;
  env.run_and_hash(cfg, &stats);
  EXPECT_EQ(stats.gradients_submitted, 0u);
  EXPECT_GT(stats.rejected_submissions, 0u);
  EXPECT_GT(stats.final_flush_drops, 0u);
  EXPECT_LE(stats.final_flush_drops, stats.rejected_submissions);
  // Non-retryable rejects never loop: no retries anywhere.
  EXPECT_EQ(stats.backpressure_retries, 0u);
  EXPECT_EQ(stats.final_flush_retries, 0u);
  EXPECT_EQ(stats.runtime.processed, 0u);
}

TEST(ParallelFleetTest, FinalFlushRetriesAreCountedSeparatelyFromDrops) {
  // Self-calibrating: a probe drive with an UNARMED injector counts the
  // try_submit calls (the kQueueFull site advances its trigger on every
  // submit even when unarmed), then a second identical drive arms a
  // two-fire queue-full plan on the LAST trigger index. The final gradient
  // is refused retryably twice and must succeed on the third attempt —
  // with at least one of those retries attributed to the final flush.
  auto cfg = base_config();
  cfg.n_threads = 1;
  cfg.rounds = 1;
  cfg.max_arrival_delay = 3;

  FaultInjector probe(0);
  RuntimeConfig probe_runtime;
  probe_runtime.fault_injector = &probe;
  FleetEnv probe_env(probe_runtime);
  ParallelFleet::Stats probe_stats;
  probe_env.run_and_hash(cfg, &probe_stats);
  const std::uint64_t submits = probe.triggers(FaultSite::kQueueFull);
  ASSERT_GT(submits, 0u);
  ASSERT_EQ(probe.fires(FaultSite::kQueueFull), 0u);
  ASSERT_EQ(probe_stats.backpressure_retries, 0u);

  FaultInjector fault(0);
  FaultPlan plan;
  plan.site = FaultSite::kQueueFull;
  plan.every = 1;
  plan.after = submits - 1;  // the probe's last submit call
  plan.max_fires = 2;
  fault.arm(plan);
  RuntimeConfig runtime;
  runtime.fault_injector = &fault;
  FleetEnv env(runtime);
  ParallelFleet::Stats stats;
  env.run_and_hash(cfg, &stats);
  EXPECT_EQ(fault.fires(FaultSite::kQueueFull), 2u);
  EXPECT_EQ(stats.backpressure_retries, 2u);
  // A mid-round retryable reject parks the job for the flush, so however
  // the two fires split across phases the flush absorbs the tail.
  EXPECT_GE(stats.final_flush_retries, 1u);
  EXPECT_LE(stats.final_flush_retries, 2u);
  EXPECT_EQ(stats.final_flush_drops, 0u);
  EXPECT_EQ(stats.rejected_submissions, 0u);
  // The retried gradient was delivered, not lost: same totals as the probe.
  EXPECT_EQ(stats.gradients_submitted, probe_stats.gradients_submitted);
  EXPECT_EQ(stats.runtime.processed, stats.gradients_submitted);
}

TEST(ParallelFleetTest, RejectsBadConfig) {
  FleetEnv env;
  auto cfg = base_config();
  cfg.n_threads = 0;
  EXPECT_THROW(ParallelFleet(*env.server, env.workers, cfg),
               std::invalid_argument);
  cfg = base_config();
  cfg.dropout_prob = 1.5;
  EXPECT_THROW(ParallelFleet(*env.server, env.workers, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace fleet::runtime
