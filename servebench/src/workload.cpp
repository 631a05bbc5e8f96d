#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fleet/device/allocation.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/net/compression.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/nn/zoo.hpp"

namespace servebench {

namespace {

// Stream ids keep every generator input independent of the others: the
// same seed reproduces each stream whatever order set-up draws them in.
enum Stream : std::uint64_t {
  kModelInit = 1,
  kPool = 2,
  kOpenLoop = 3,
  kPoll = 4,
  kClosedLoop = 5,
  kPhase = 6,
  kRoundTrip = 7,
};

fleet::stats::Rng stream(std::uint64_t seed, Stream kind, std::uint64_t id) {
  return fleet::stats::Rng::stream(seed, kind * 1000003ULL + id);
}

/// The one seeded phase every open-loop arrival stream is offset from.
double arrival_phase(std::uint64_t seed) {
  return stream(seed, kPhase, 0).uniform(0.0, 0.001);
}

std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> all;
  {
    // Every fixed per-gradient cost dominates and the fold is almost free:
    // controller and tau_thres percentiles, ring mutex and heap copy,
    // queue admission, drain/publish per batch. Two planner groups,
    // four-tenant demux, the sequential process() fold path.
    WorkloadSpec w;
    w.name = "small_online";
    w.model = ModelKind::kMlp;
    w.tenants = 4;
    w.planners = 2;
    w.fold_shards = 1;
    w.upload_threads = 2;
    w.open_loop_cycles_per_s = 800.0;
    w.closed_loop_outstanding = 128;
    w.warmup_uploads = kWindow + 256;
    w.saturation_uploads = 3500;
    all.push_back(w);
  }
  {
    // Cost grows with |theta|: int8 dequantize, ring byte copy, span fold,
    // the 1.3 MB snapshot copy per publish. Plan->fold scheduler path with
    // two fold shards. In saturation more uploads are in flight than the
    // queue (128) and the 4 MiB ring (~12 frames) hold together, so both
    // push back and the ingest's submit retry budget is exercised.
    WorkloadSpec w;
    w.name = "cnn_fold";
    w.model = ModelKind::kCifarCnn;
    w.tenants = 1;
    w.planners = 1;
    w.fold_shards = 2;
    w.queue_capacity = 128;
    w.upload_threads = 1;
    // An eighth of saturation, not a quarter: at 320 cycles/s requests and
    // plans already queue behind each other on the aggregator mutex, and
    // upload_p50_ms spread about twice as far over ten seeds (README.md).
    w.open_loop_cycles_per_s = 160.0;
    w.closed_loop_outstanding = 256;
    w.warmup_uploads = kWindow + 256;
    w.saturation_uploads = 4000;
    all.push_back(w);
  }
  {
    // Read-heavy twin of small_online: eight requests per upload, two of
    // the generator threads only poll, and the controller refuses tasks
    // whose label similarity is above its 75th percentile.
    WorkloadSpec w;
    w.name = "poll_heavy";
    w.model = ModelKind::kMnistCnn;
    w.tenants = 1;
    w.planners = 1;
    w.fold_shards = 1;
    w.upload_threads = 1;
    w.request_threads = 2;
    w.requests_per_cycle = 8;
    w.similarity_percentile = 75.0;
    // About 0.75 of the cycles upload (the controller refuses the rest).
    w.open_loop_cycles_per_s = 60.0;
    w.closed_loop_outstanding = 64;
    w.warmup_uploads = kWindow + 3328;
    w.saturation_uploads = 600;
    all.push_back(w);
  }
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = build_workloads();
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t model_seed(std::uint64_t seed, std::size_t tenant) {
  return stream(seed, kModelInit, tenant).engine()();
}

std::unique_ptr<fleet::nn::Sequential> make_model(ModelKind kind,
                                                  std::uint64_t init_seed) {
  std::unique_ptr<fleet::nn::Sequential> model;
  switch (kind) {
    case ModelKind::kMlp:
      model = fleet::nn::zoo::mlp(32, 64, 10);
      break;
    case ModelKind::kCifarCnn:
      model = fleet::nn::zoo::cifar_cnn();
      break;
    case ModelKind::kMnistCnn:
      model = fleet::nn::zoo::mnist_cnn();
      break;
  }
  model->init(init_seed);
  return model;
}

fleet::core::ServerConfig server_config(const WorkloadSpec& spec) {
  fleet::core::ServerConfig config;
  config.learning_rate = 0.01f;
  config.aggregator.staleness_window = kWindow;
  config.controller.similarity_percentile = spec.similarity_percentile;
  return config;
}

FramePool make_pool(fleet::core::ModelId id, std::size_t parameter_count,
                    std::size_t n_classes, std::uint64_t seed) {
  fleet::stats::Rng rng = stream(seed, kPool, id);
  const auto names = fleet::device::aws_fleet();
  FramePool pool;
  pool.devices.reserve(kPoolSize);
  pool.frames.resize(kPoolSize);
  std::vector<float> gradient(parameter_count);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    Device device;
    device.model = names[rng.uniform_int(0, static_cast<std::int64_t>(
                                                names.size() - 1))];
    device.sim_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    fleet::device::DeviceSim sim(fleet::device::spec(device.model),
                                 device.sim_seed);
    device.features = sim.features(&rng);
    // Non-IID local data: one to three dominant classes per device, so the
    // similarity boost and the controller's similarity filter have signal.
    device.labels = fleet::stats::LabelDistribution(n_classes);
    const auto dominant = rng.uniform_int(1, 3);
    for (std::int64_t c = 0; c < dominant; ++c) {
      device.labels.add(static_cast<int>(rng.uniform_int(
                            0, static_cast<std::int64_t>(n_classes - 1))),
                        static_cast<std::size_t>(rng.uniform_int(4, 24)));
    }
    for (float& g : gradient) g = static_cast<float>(rng.gaussian(0.0, 0.01));
    fleet::net::WireMeta meta;
    meta.model_id = id;
    meta.task_version = 0;
    meta.mini_batch = device.labels.total();
    fleet::net::encode_frame(meta, device.labels,
                             fleet::net::quantize_gradient(gradient),
                             pool.frames[i]);
    pool.devices.push_back(std::move(device));
  }
  return pool;
}

void patch_task_version(std::span<std::uint8_t> frame, std::uint64_t version) {
  if (frame.size() < fleet::net::kWireHeaderBytes) {
    throw std::invalid_argument("patch_task_version: short frame");
  }
  for (std::size_t b = 0; b < 8; ++b) {
    frame[16 + b] = static_cast<std::uint8_t>(version >> (8 * b));
  }
}

RoundTrips::RoundTrips(const FramePool& pool, fleet::stats::Rng rng)
    : pool_(&pool), network_(fleet::net::NetworkModel::Config{}), rng_(rng) {
  sims_.reserve(pool.devices.size());
  for (const Device& d : pool.devices) {
    sims_.emplace_back(fleet::device::spec(d.model), d.sim_seed);
  }
}

double RoundTrips::next_s(std::uint32_t device) {
  fleet::device::DeviceSim& sim = sims_[device];
  const double download_s = 0.5 * network_.sample_transfer_s(rng_);
  const double compute_s =
      sim.run_task(pool_->devices[device].labels.total(),
                   fleet::device::fleet_allocation(sim.spec()))
          .time_s;
  const double upload_s = 0.5 * network_.sample_transfer_s(rng_);
  return (download_s + compute_s + upload_s) / kTimeCompression;
}

OpenLoopSchedule make_open_loop(const WorkloadSpec& spec, const FramePool& pool,
                                std::size_t session, double seconds,
                                std::uint64_t seed) {
  fleet::stats::Rng rng = stream(seed, kOpenLoop, session);
  RoundTrips trips(pool, stream(seed, kRoundTrip, session));
  const double rate =
      spec.open_loop_cycles_per_s / static_cast<double>(spec.tenants);
  OpenLoopSchedule s;
  // Fixed rate. Sessions are staggered evenly across the period, behind
  // one seeded phase, so a sender never serves two sessions' arrivals at
  // once: the seed varies devices and delays, not how arrivals collide.
  const double period = 1.0 / rate;
  const double phase = arrival_phase(seed) + period *
                                                 static_cast<double>(session) /
                                                 static_cast<double>(spec.tenants);
  for (double t = phase; t < seconds; t += period) {
    const auto device =
        static_cast<std::uint32_t>(rng.uniform_int(0, kPoolSize - 1));
    s.arrival_s.push_back(t);
    s.delay_s.push_back(trips.next_s(device));
    s.device.push_back(device);
  }
  return s;
}

PollSchedule make_poll_schedule(const WorkloadSpec& spec, std::size_t thread,
                                double seconds, std::uint64_t seed) {
  PollSchedule s;
  if (spec.request_threads == 0 || spec.requests_per_cycle <= 1) return s;
  fleet::stats::Rng rng = stream(seed, kPoll, thread);
  const double rate = spec.open_loop_cycles_per_s *
                      static_cast<double>(spec.requests_per_cycle - 1) /
                      static_cast<double>(spec.request_threads);
  // Pollers staggered like sessions (see make_open_loop), half a slot off
  // the device cycles, which arrive an integer number of poll slots apart.
  const double period = 1.0 / rate;
  const double phase =
      arrival_phase(seed) + period * (static_cast<double>(thread) + 0.5) /
                                static_cast<double>(spec.request_threads);
  for (double t = phase; t < seconds; t += period) {
    s.at_s.push_back(t);
    s.device.push_back(static_cast<std::uint32_t>(
        rng.uniform_int(0, kPoolSize - 1)));
  }
  return s;
}

ClosedLoopDraws::ClosedLoopDraws(const WorkloadSpec& spec,
                                 const FramePool& pool, std::size_t session,
                                 std::uint64_t seed, std::size_t phase)
    : rng_(stream(seed, kClosedLoop, session * 64 + phase)),
      trips_(pool, stream(seed, kRoundTrip, 1000 + session * 64 + phase)),
      cycles_per_s_(spec.open_loop_cycles_per_s /
                    static_cast<double>(spec.tenants)) {}

std::uint32_t ClosedLoopDraws::device() {
  return static_cast<std::uint32_t>(rng_.uniform_int(0, kPoolSize - 1));
}

std::size_t ClosedLoopDraws::lag_cycles(std::uint32_t device) {
  return static_cast<std::size_t>(trips_.next_s(device) * cycles_per_s_ + 0.5);
}

}  // namespace servebench
