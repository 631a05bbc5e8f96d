// Fault-resilience bench (DESIGN.md §14): what the serving stack delivers
// when the wire is hostile and the queue must choose what to keep.
//
//   1. Corruption sweep — end-to-end gradients/s into a
//      ConcurrentFleetServer through LoopbackIngest under {0%, 1%, 10%}
//      seeded wire corruption, crossed with the overload policy
//      {reject-newest, shed-stalest}. Alongside throughput each cell
//      reports the folded fraction (gradients folded / frames sent) — the
//      accuracy proxy: a corrupted or shed gradient never trains the model.
//   2. Injector-kill recovery — a bounded schedule of injector-thread
//      deaths mid-stream; the supervisor must respawn each one (counted)
//      and every frame must still be delivered.
//
// All schedules come from a seeded FaultInjector, so the numbers are
// comparable run to run. Emits BENCH_faults.json via bench::JsonReport.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/net/ingest.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "fleet/runtime/fault.hpp"
#include "fleet/stats/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace fleet;

std::unique_ptr<profiler::Profiler> pretrained_iprof() {
  auto iprof = std::make_unique<profiler::IProf>(profiler::IProf::Config{});
  iprof->pretrain(profiler::collect_profile_dataset(
      device::training_fleet(), profiler::IProf::Config{}.slo, 20));
  return iprof;
}

runtime::GradientJob make_job(const nn::TrainableModel& model,
                              std::size_t salt, stats::Rng& rng) {
  runtime::GradientJob job;
  job.model_id = core::kDefaultModelId;
  job.task_version = 0;
  job.gradient.resize(model.parameter_count());
  for (float& g : job.gradient) {
    g = static_cast<float>(rng.gaussian(0.0, 0.01));
  }
  job.label_dist = stats::LabelDistribution(model.n_classes());
  job.label_dist.add(static_cast<int>(salt % model.n_classes()), 2);
  job.mini_batch = 4;
  return job;
}

double elapsed_s(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

struct CellResult {
  double grads_per_s = 0.0;
  double folded_fraction = 0.0;
  std::size_t corrupted = 0;
  std::size_t shed = 0;
};

}  // namespace

int main() {
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(1);
  const std::size_t n_frames = bench::scaled(8000, 800);

  // One pre-encoded stream; every cell replays the identical frames.
  stats::Rng rng(7);
  std::vector<std::vector<std::uint8_t>> frames(n_frames);
  for (std::size_t i = 0; i < n_frames; ++i) {
    net::encode_job(make_job(*model, i, rng), net::PayloadKind::kInt8,
                    frames[i]);
  }

  core::ServerConfig server_cfg;
  server_cfg.learning_rate = 0.01f;

  const auto run_cell = [&](double corruption,
                            runtime::OverloadPolicy policy) {
    runtime::FaultInjector fault(11);
    if (corruption > 0.0) {
      runtime::FaultPlan plan;
      plan.site = runtime::FaultSite::kWireCorrupt;
      plan.probability = corruption;
      fault.arm(plan);
    }
    auto m = nn::zoo::mlp(8, 4, 3);
    m->init(1);
    runtime::RuntimeConfig runtime_cfg;
    runtime_cfg.queue_capacity = 256;
    runtime_cfg.overload_policy = policy;
    runtime_cfg.shed_watermark = 192;
    runtime_cfg.fault_injector = &fault;
    runtime::ConcurrentFleetServer server(*m, pretrained_iprof(), server_cfg,
                                          runtime_cfg);
    net::LoopbackIngest::Config ingest_cfg;
    ingest_cfg.fault = &fault;
    net::LoopbackIngest ingest(server, ingest_cfg);
    const auto start = Clock::now();
    for (const auto& f : frames) {
      while (!ingest.try_send(f)) {}  // ring backpressure: spin
    }
    ingest.drain();
    server.drain();
    const double wall_s = elapsed_s(start, Clock::now());
    ingest.close();
    const net::IngestStats in = ingest.stats();
    const std::size_t processed = server.stats().processed;
    const std::size_t shed_total = server.host_stats().shed_drops;
    server.stop();
    CellResult cell;
    cell.grads_per_s = static_cast<double>(processed) / wall_s;
    cell.folded_fraction =
        static_cast<double>(processed) / static_cast<double>(n_frames);
    cell.corrupted = in.frames_corrupted;
    cell.shed = shed_total;
    return cell;
  };

  bench::header("Fault resilience (" + std::to_string(n_frames) +
                " frames per cell)");
  bench::JsonReport report("fault_resilience");
  report.metric("frames_per_cell", n_frames);

  const struct {
    double corruption;
    const char* tag;
  } levels[] = {{0.0, "none"}, {0.01, "corrupt1"}, {0.10, "corrupt10"}};
  const struct {
    runtime::OverloadPolicy policy;
    const char* tag;
  } policies[] = {
      {runtime::OverloadPolicy::kRejectNewest, "reject_newest"},
      {runtime::OverloadPolicy::kShedStalest, "shed_stalest"},
  };
  for (const auto& level : levels) {
    for (const auto& policy : policies) {
      const CellResult cell = run_cell(level.corruption, policy.policy);
      const std::string key =
          std::string(level.tag) + "_" + policy.tag;
      bench::row({key, bench::fmt(cell.grads_per_s, 0) + " gradients/s",
                  "folded " + bench::fmt(cell.folded_fraction, 3),
                  "corrupted " + std::to_string(cell.corrupted),
                  "shed " + std::to_string(cell.shed)});
      report.metric(key + "_grads_per_s", cell.grads_per_s);
      report.metric(key + "_folded_fraction", cell.folded_fraction);
    }
  }

  // --- 2. Injector-kill recovery -------------------------------------------
  // Three seeded deaths spread through the stream; the healed pipeline must
  // deliver every frame and count every respawn.
  double recovery_grads_per_s = 0.0;
  std::size_t restarts = 0;
  std::size_t recovered_frames = 0;
  {
    runtime::FaultInjector fault(11);
    runtime::FaultPlan death;
    death.site = runtime::FaultSite::kInjectorDeath;
    death.every = n_frames / 4;
    death.max_fires = 3;
    fault.arm(death);
    auto m = nn::zoo::mlp(8, 4, 3);
    m->init(1);
    runtime::RuntimeConfig runtime_cfg;
    runtime_cfg.fault_injector = &fault;
    runtime::ConcurrentFleetServer server(*m, pretrained_iprof(), server_cfg,
                                          runtime_cfg);
    net::LoopbackIngest::Config ingest_cfg;
    ingest_cfg.injector_threads = 2;
    ingest_cfg.fault = &fault;
    net::LoopbackIngest ingest(server, ingest_cfg);
    const auto start = Clock::now();
    for (const auto& f : frames) {
      while (!ingest.try_send(f)) {}
    }
    ingest.drain();
    server.drain();
    const double wall_s = elapsed_s(start, Clock::now());
    ingest.close();
    const net::IngestStats in = ingest.stats();
    restarts = in.injector_restarts;
    recovered_frames = in.frames_submitted;
    recovery_grads_per_s = static_cast<double>(server.stats().processed) /
                           wall_s;
    server.stop();
    if (recovered_frames != n_frames) {
      std::cerr << "recovery lost " << n_frames - recovered_frames << " of "
                << n_frames << " frames (" << recovered_frames
                << " recovered)\n";
      return 1;
    }
  }
  bench::row({"recovery", bench::fmt(recovery_grads_per_s, 0) + " gradients/s",
              "restarts " + std::to_string(restarts),
              "frames " + std::to_string(recovered_frames)});
  report.metric("recovery_grads_per_s", recovery_grads_per_s);
  report.metric("recovery_injector_restarts", restarts);
  report.metric("recovery_frames_submitted", recovered_frames);

  report.write("BENCH_faults.json");
  std::cout << "\nwrote BENCH_faults.json\n";
  return 0;
}
