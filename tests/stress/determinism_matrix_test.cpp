// Determinism matrix over the concurrent serving runtime: the final model
// of a ParallelFleet drive must be bitwise identical across every
// {worker threads} x {aggregation shards} x {drain batch} configuration,
// and match the default runtime's single-lane fold (one shard, unbatched)
// bit for bit. ConcurrentServerTest pins that fold against the sequential
// core::FleetServer. Weights are computed centrally at
// processing time and every parameter index sees the same operation
// sequence, so neither the shard fan-out nor the batch cadence may change
// a single ULP.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "../test_util.hpp"
#include "fleet/data/partition.hpp"
#include "fleet/data/synthetic_images.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/runtime/parallel_fleet.hpp"
#include "fleet/tensor/kernels/kernels.hpp"

namespace fleet::runtime {
namespace {

using test::param_hash;
using test::pretrained_iprof;

/// One dataset for the whole matrix — identical local data in every cell.
const data::TrainTestSplit& shared_split() {
  static const data::TrainTestSplit split = data::generate_synthetic_images([] {
    data::SyntheticImageConfig cfg;
    cfg.n_classes = 4;
    cfg.n_train = 240;
    cfg.n_test = 40;
    return cfg;
  }());
  return split;
}

/// Build a fresh, identically-initialized environment and drive it for a
/// fixed schedule; returns the final-model bit hash. `telemetry` turns the
/// observability substrate on — which must be invisible in the result
/// (timing is observed, never consulted; DESIGN.md §11).
/// An adaptive-batching config that actually moves during a short drive:
/// tight starting range, one-drain windows, no hysteresis damping.
AdaptiveBatchConfig live_adaptive_config() {
  AdaptiveBatchConfig config;
  config.enabled = true;
  config.min_batch = 2;
  config.max_batch = 64;
  config.window = 1;
  config.hysteresis = 1;
  return config;
}

std::uint64_t run_cell(std::size_t n_threads, std::size_t shards,
                       std::size_t max_batch, bool telemetry = false,
                       std::size_t planners = 1, bool adaptive = false) {
  const auto& split = shared_split();
  auto model = nn::zoo::small_cnn(1, 14, 14, 4);
  model->init(1);
  core::ServerConfig config;
  config.learning_rate = 0.05f;
  RuntimeConfig runtime;
  runtime.aggregation_shards = shards;
  runtime.max_drain_batch = max_batch;
  runtime.telemetry.enabled = telemetry;
  runtime.planner_threads = planners;
  if (adaptive) runtime.adaptive_batch = live_adaptive_config();
  ConcurrentFleetServer server(*model, pretrained_iprof(), config, runtime);

  stats::Rng rng(2);
  const auto partition = data::partition_iid(split.train.size(), 6, rng);
  const auto fleet = device::lab_fleet();
  std::vector<core::FleetWorker> workers;
  for (std::size_t u = 0; u < partition.size(); ++u) {
    auto replica = nn::zoo::small_cnn(1, 14, 14, 4);
    replica->init(1);
    workers.emplace_back(static_cast<int>(u), std::move(replica), split.train,
                         partition[u], device::spec(fleet[u % fleet.size()]),
                         100 + u);
  }

  ParallelFleet::Config cfg;
  cfg.n_threads = n_threads;
  cfg.rounds = 4;
  cfg.max_arrival_delay = 2;
  cfg.dropout_prob = 0.2;  // churn: some computed gradients never arrive
  cfg.seed = 11;
  ParallelFleet driver(server, workers, cfg);
  const auto stats = driver.run();
  EXPECT_GT(stats.gradients_submitted, 0u);
  EXPECT_EQ(stats.runtime.processed, stats.gradients_submitted);
  server.stop();
  return param_hash(model->parameters_view());
}

/// --- Multi-tenant concurrent-fold matrix (DESIGN.md §9) ---------------
/// {threads} x {shards} x {batches} x {tenants}: every session hosted
/// among others, folded concurrently on the shared scheduler, must end
/// bitwise identical to its solo single-lane run. Sessions are cheap
/// MLPs fed staged-value jobs from live producer threads (each session
/// owned by exactly one thread — per-session admission order is program
/// order, which is all the determinism argument needs).

GradientJob tenant_job(const nn::TrainableModel& model, core::ModelId id,
                       std::size_t tenant, std::size_t i) {
  GradientJob job;
  job.model_id = id;
  job.task_version = 0;
  job.gradient.resize(model.parameter_count());
  for (std::size_t p = 0; p < job.gradient.size(); ++p) {
    job.gradient[p] =
        0.001f * static_cast<float>((p * 7 + tenant * 31 + i * 13) % 23) -
        0.01f;
  }
  job.label_dist = stats::LabelDistribution(model.n_classes());
  job.label_dist.add(static_cast<int>((tenant + i) % model.n_classes()), 2);
  job.mini_batch = 4;
  return job;
}

core::ServerConfig tenant_server_config() {
  core::ServerConfig config;
  config.learning_rate = 0.1f;
  return config;
}

constexpr std::size_t kTenantJobs = 24;

/// Solo reference for tenant `m`: one session, shards = 1, unbatched.
std::vector<float> tenant_solo_reference(std::size_t m) {
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(50 + m);
  RuntimeConfig runtime;
  runtime.start_paused = true;
  ConcurrentFleetServer server(*model, test::pretrained_iprof(),
                               tenant_server_config(), runtime);
  for (std::size_t i = 0; i < kTenantJobs; ++i) {
    GradientJob job = tenant_job(*model, core::kDefaultModelId, m, i);
    EXPECT_TRUE(server.try_submit(job).accepted);
  }
  server.resume();
  server.drain();
  server.stop();
  const auto view = model->parameters_view();
  return std::vector<float>(view.begin(), view.end());
}

/// One cell: `tenants` sessions on one host, driven live by `threads`
/// producer threads (session m belongs to thread m % threads). Returns
/// per-tenant final parameters.
std::vector<std::vector<float>> run_tenant_cell(std::size_t tenants,
                                                std::size_t threads,
                                                std::size_t shards,
                                                std::size_t batch,
                                                std::size_t planners = 1,
                                                bool adaptive = false) {
  std::vector<std::unique_ptr<nn::Sequential>> models;
  for (std::size_t m = 0; m < tenants; ++m) {
    models.push_back(nn::zoo::mlp(8, 4, 3));
    models.back()->init(50 + m);
  }
  RuntimeConfig runtime;
  runtime.aggregation_shards = shards;
  runtime.max_drain_batch = batch;
  runtime.planner_threads = planners;
  if (adaptive) runtime.adaptive_batch = live_adaptive_config();
  ConcurrentFleetServer host(runtime);
  std::vector<core::ModelId> ids;
  for (auto& model : models) {
    ids.push_back(host.register_model(*model, test::pretrained_iprof(),
                                      tenant_server_config()));
  }

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < std::min(threads, tenants); ++t) {
    producers.emplace_back([&, t] {
      // Round-robin over this thread's sessions so their jobs interleave
      // in the shared queue; each session's own order stays sequential.
      for (std::size_t i = 0; i < kTenantJobs; ++i) {
        for (std::size_t m = t; m < tenants; m += threads) {
          GradientJob job = tenant_job(*models[m], ids[m], m, i);
          while (!host.try_submit(job).accepted) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  host.drain();
  host.stop();

  std::vector<std::vector<float>> finals;
  for (auto& model : models) {
    const auto view = model->parameters_view();
    finals.emplace_back(view.begin(), view.end());
  }
  return finals;
}

TEST(DeterminismMatrixTest, TenantMatrixMatchesSoloRunsBitwise) {
  std::vector<std::vector<float>> references;
  for (std::size_t m = 0; m < 4; ++m) {
    references.push_back(tenant_solo_reference(m));
  }

  std::vector<std::string> mismatches;
  for (const std::size_t tenants : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      for (const std::size_t shards : {1u, 2u, 4u}) {
        for (const std::size_t batch : {1u, 8u, 32u}) {
          const auto finals = run_tenant_cell(tenants, threads, shards, batch);
          for (std::size_t m = 0; m < tenants; ++m) {
            if (param_hash(finals[m]) != param_hash(references[m])) {
              mismatches.push_back(
                  "tenant " + std::to_string(m) + " of " +
                  std::to_string(tenants) + ": threads=" +
                  std::to_string(threads) + " shards=" +
                  std::to_string(shards) + " batch=" + std::to_string(batch));
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(mismatches.empty()) << [&] {
    std::string report = "sessions diverging from their solo runs:";
    for (const auto& cell : mismatches) report += "\n  " + cell;
    return report;
  }();
}

TEST(DeterminismMatrixTest, TenantMatrixInvariantAcrossPlannersAndAdaptive) {
  // The §13 axes: sessions shard across planner threads by id, each
  // planner drains its own queue group under its own (possibly moving)
  // batch limit — and every tenant must still end bitwise identical to
  // its solo single-planner run. Tickets are host-global and
  // each group's drain is an exact admission-order prefix, so neither the
  // planner count nor the adaptive schedule may move a ULP.
  constexpr std::size_t kTenants = 4;
  std::vector<std::vector<float>> references;
  for (std::size_t m = 0; m < kTenants; ++m) {
    references.push_back(tenant_solo_reference(m));
  }

  std::vector<std::string> mismatches;
  for (const std::size_t planners : {1u, 2u, 4u}) {
    for (const bool adaptive : {false, true}) {
      const auto finals =
          run_tenant_cell(kTenants, /*threads=*/4, /*shards=*/2, /*batch=*/8,
                          planners, adaptive);
      for (std::size_t m = 0; m < kTenants; ++m) {
        if (param_hash(finals[m]) != param_hash(references[m])) {
          mismatches.push_back("tenant " + std::to_string(m) +
                               ": planners=" + std::to_string(planners) +
                               " adaptive=" + (adaptive ? "on" : "off"));
        }
      }
    }
  }
  EXPECT_TRUE(mismatches.empty()) << [&] {
    std::string report = "sessions diverging from their solo runs:";
    for (const auto& cell : mismatches) report += "\n  " + cell;
    return report;
  }();
}

TEST(DeterminismMatrixTest, PlannerAndAdaptiveAxesAreBitwiseInvisible) {
  // Single-model drive through the full ParallelFleet protocol: extra
  // planners idle (one model maps to one group) and the adaptive
  // controller only re-times drains — the final model must not notice.
  const std::uint64_t baseline = run_cell(2, 2, 8);
  for (const std::size_t planners : {2u, 4u}) {
    for (const bool adaptive : {false, true}) {
      EXPECT_EQ(baseline,
                run_cell(2, 2, 8, /*telemetry=*/false, planners, adaptive))
          << "planners=" << planners
          << " adaptive=" << (adaptive ? "on" : "off");
    }
  }
}

TEST(DeterminismMatrixTest, AdaptiveBatcherIsClockFreeUnderTelemetry) {
  // Acceptance check for the counters-not-clocks invariant: the adaptive
  // controller feeds on queue-depth and occupancy counters it owns, never
  // the §11 telemetry clocks — so enabling telemetry under full adaptive
  // mode cannot perturb the model. If the controller ever consulted a
  // clock, the extra clock reads telemetry induces would move the drain
  // schedule; the schedule is result-invisible anyway, but this axis
  // keeps the dependency structure honest end to end.
  for (const std::size_t planners : {1u, 2u}) {
    const std::uint64_t off =
        run_cell(2, 2, 8, /*telemetry=*/false, planners, /*adaptive=*/true);
    const std::uint64_t on =
        run_cell(2, 2, 8, /*telemetry=*/true, planners, /*adaptive=*/true);
    EXPECT_EQ(off, on) << "telemetry perturbed adaptive mode at planners="
                       << planners;
  }
}

TEST(DeterminismMatrixTest, KernelBackendAxisIsBitwiseStablePerBackend) {
  // Kernel-backend axis (DESIGN.md §10): per *pinned* backend, a full
  // drive — worker gradient computation, fold, model apply — is bitwise
  // reproducible across runs and across the concurrency axes. Backends are
  // NOT asserted equal to each other here: the workers' backward passes
  // run matmul_a_bt, the one kernel the contract scopes as deterministic
  // per backend but only ULP-close across backends. The cross-backend
  // bitwise guarantees (elementwise, accumulate-GEMMs, pinned reductions)
  // are enforced input-by-input in the kernel parity suite instead.
  namespace kernels = tensor::kernels;
  const kernels::Backend original = kernels::active_backend();

  std::vector<kernels::Backend> backends = {kernels::Backend::kPortable};
  for (const kernels::Backend b :
       {kernels::Backend::kAvx2, kernels::Backend::kNeon}) {
    if (kernels::available(b)) backends.push_back(b);
  }
  for (const kernels::Backend backend : backends) {
    kernels::pin_backend(backend);
    const std::uint64_t first = run_cell(2, 2, 8);
    EXPECT_EQ(first, run_cell(2, 2, 8))
        << kernels::name(backend) << " backend not reproducible";
    // The concurrency axes stay invariant under every backend.
    EXPECT_EQ(first, run_cell(4, 4, 32))
        << kernels::name(backend)
        << ": threads/shards/batch axis not invariant under this backend";
  }

  // Restore the startup selection for the rest of the suite.
  kernels::pin_backend(original);
}

TEST(DeterminismMatrixTest, TelemetryOnOffIsBitwiseIdentical) {
  // The telemetry axis (DESIGN.md §11): tracing reads clocks and writes
  // rings, but no scheduling or learning decision ever consults it, so
  // turning it on cannot move a single ULP — across the single-lane fold,
  // the sharded fold and batched drains alike.
  const std::tuple<std::size_t, std::size_t, std::size_t> cells[] = {
      {1, 1, 0}, {2, 2, 8}, {4, 4, 32}};
  for (const auto& [threads, shards, batch] : cells) {
    const std::uint64_t off = run_cell(threads, shards, batch, false);
    const std::uint64_t on = run_cell(threads, shards, batch, true);
    EXPECT_EQ(off, on) << "telemetry perturbed the model at threads="
                       << threads << " shards=" << shards
                       << " batch=" << batch;
  }
}

TEST(DeterminismMatrixTest, FinalModelInvariantAcrossThreadsShardsBatches) {
  // Baseline: one driver thread, the single-lane fold (shards = 1),
  // unbatched drains.
  const std::uint64_t baseline = run_cell(1, 1, 0);

  std::map<std::string, std::uint64_t> mismatches;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t batch : {1u, 8u, 32u}) {
        const std::uint64_t h = run_cell(threads, shards, batch);
        if (h != baseline) {
          mismatches["threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards) +
                     " batch=" + std::to_string(batch)] = h;
        }
      }
    }
  }
  EXPECT_TRUE(mismatches.empty()) << [&] {
    std::string report = "cells diverging from the single-lane baseline:";
    for (const auto& [cell, hash] : mismatches) {
      report += "\n  " + cell + " -> " + std::to_string(hash);
    }
    return report;
  }();
}

}  // namespace
}  // namespace fleet::runtime
