#pragma once

// Workload definitions and the seeded input generator of the serving
// benchmark. Everything the generator feeds the host — device features,
// label distributions, gradient frames, arrival times, device round trips
// — is a pure function of the workload and the `--seed` argument.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/core/config.hpp"
#include "fleet/core/server.hpp"
#include "fleet/device/device_model.hpp"
#include "fleet/net/network_model.hpp"
#include "fleet/nn/model.hpp"
#include "fleet/profiler/features.hpp"
#include "fleet/stats/label_distribution.hpp"
#include "fleet/stats/rng.hpp"

namespace servebench {

enum class ModelKind { kMlp, kCifarCnn, kMnistCnn };

/// One traffic mix. Every rate and size here is a constant of the
/// workload: nothing is derived from a measurement at run time.
struct WorkloadSpec {
  std::string name;
  ModelKind model = ModelKind::kMlp;
  std::size_t tenants = 1;
  std::size_t planners = 1;
  std::size_t fold_shards = 1;
  /// Ingest queue bound; the cnn_fold bound keeps decoded 1.3 MB jobs
  /// from growing past ~170 MB when the saturation phase fills it.
  std::size_t queue_capacity = 4096;
  /// Generator threads that run device cycles (request, compute, upload).
  /// Each session is owned by exactly one of them, so a session's upload
  /// order is its sender's send order.
  std::size_t upload_threads = 1;
  /// Extra generator threads that only poll (handle_request + current).
  std::size_t request_threads = 0;
  /// Requests per device cycle, the cycle's own request included.
  std::size_t requests_per_cycle = 1;
  double similarity_percentile = 100.0;
  /// Open-loop device-cycle rate over all sessions, cycles per second.
  /// Set once to a fixed share (a quarter, an eighth on cnn_fold) of the
  /// saturated upload rate measured when the benchmark was written
  /// (README.md); never computed at run time.
  double open_loop_cycles_per_s = 0.0;
  /// Saturation phase: uploads per session sent but not yet covered by a
  /// published version. Devices still computing do not count.
  std::size_t closed_loop_outstanding = 64;
  /// Warm-up uploads per session (closed loop, untimed). At least
  /// kWindow + 256 so every staleness and controller window is full, and
  /// enough that warm-up plus both phases give every session a stream of
  /// at least twice the window.
  std::size_t warmup_uploads = 0;
  /// Closed-loop saturation phase: uploads per session, over all bursts.
  std::size_t saturation_uploads = 0;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

/// Staleness window of the AdaSGD aggregator and of both controller
/// windows (the seed's defaults); set-up warms every session past it.
inline constexpr std::size_t kWindow = 4096;
/// Distinct pre-encoded frames (and devices) per session.
inline constexpr std::size_t kPoolSize = 64;

/// Initialization seed of tenant `tenant`'s model.
std::uint64_t model_seed(std::uint64_t seed, std::size_t tenant);
std::unique_ptr<fleet::nn::Sequential> make_model(ModelKind kind,
                                                  std::uint64_t init_seed);
fleet::core::ServerConfig server_config(const WorkloadSpec& spec);

/// One simulated device: what it reports at request time, and the seed of
/// the DeviceSim that times its learning tasks.
struct Device {
  fleet::profiler::DeviceFeatures features;
  std::string model;
  fleet::stats::LabelDistribution labels{1};
  std::uint64_t sim_seed = 0;
};

/// Per-session input pool: device i always uploads frames[i]. Frames are
/// int8 wire frames encoded once at set-up with task version 0; the
/// generator patches only the task-version field before each send.
struct FramePool {
  std::vector<Device> devices;
  std::vector<std::vector<std::uint8_t>> frames;
};

FramePool make_pool(fleet::core::ModelId id, std::size_t parameter_count,
                    std::size_t n_classes, std::uint64_t seed);

/// Overwrite the task-version header field (bytes 16..23, little endian).
void patch_task_version(std::span<std::uint8_t> frame, std::uint64_t version);

/// Factor by which device round trips are shortened so that a run of a
/// few seconds spans many of them. The staleness an upload sees is the
/// session's cycle rate times its round trip over this factor; see
/// README.md.
inline constexpr double kTimeCompression = 64.0;

/// Round trip of a device cycle, seconds, drawn from the repository's own
/// deployment model as core::FleetSimulation composes it: half a
/// NetworkModel transfer to download the model, DeviceSim::run_task on the
/// device's mini-batch with the fleet core allocation, half a transfer to
/// upload — divided by kTimeCompression. Each pool device keeps its own
/// DeviceSim, so thermal state carries over between its tasks.
class RoundTrips {
 public:
  RoundTrips(const FramePool& pool, fleet::stats::Rng rng);
  double next_s(std::uint32_t device);

 private:
  const FramePool* pool_;
  std::vector<fleet::device::DeviceSim> sims_;
  fleet::net::NetworkModel network_;
  fleet::stats::Rng rng_;
};

/// The open-loop schedule of one session: device cycle k arrives at
/// arrival_s[k] (seconds after the phase start), runs on device device[k]
/// and, if the controller admits it, uploads delay_s[k] later.
struct OpenLoopSchedule {
  std::vector<double> arrival_s;
  std::vector<double> delay_s;
  std::vector<std::uint32_t> device;
};
OpenLoopSchedule make_open_loop(const WorkloadSpec& spec, const FramePool& pool,
                                std::size_t session, double seconds,
                                std::uint64_t seed);

/// Fixed-rate poll schedule of one request thread (poll_heavy).
struct PollSchedule {
  std::vector<double> at_s;
  std::vector<std::uint32_t> device;
};
PollSchedule make_poll_schedule(const WorkloadSpec& spec, std::size_t thread,
                                double seconds, std::uint64_t seed);

/// Closed-loop draw stream of one session: the device of each cycle, and
/// its round trip counted in the session's later cycles — the open loop's
/// round trips at the open loop's per-session cycle rate, so a session's
/// staleness has the same shape in both.
class ClosedLoopDraws {
 public:
  ClosedLoopDraws(const WorkloadSpec& spec, const FramePool& pool,
                  std::size_t session, std::uint64_t seed, std::size_t phase);
  std::uint32_t device();
  std::size_t lag_cycles(std::uint32_t device);

 private:
  fleet::stats::Rng rng_;
  RoundTrips trips_;
  double cycles_per_s_;
};

}  // namespace servebench
