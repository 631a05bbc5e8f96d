#pragma once

// One benchmark host: set-up (pool, I-Prof, host, window warm-up), the
// open-loop phase, the closed-loop saturation phase and the correctness
// checks, driving a real ConcurrentFleetServer through LoopbackIngest.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "fleet/net/ingest.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "workload.hpp"

namespace servebench {

/// Nanoseconds on the steady clock since the first call in the process.
std::int64_t now_ns();

/// One entry of a session's device-cycle log, in its sender's order: a
/// request (index = device) or a sent upload (index = position in
/// SessionRecord::sent).
struct Event {
  enum class Kind : std::uint8_t { kRequest, kUpload };
  Kind kind = Kind::kRequest;
  bool accepted = false;  // request outcome (uploads: always true)
  std::uint32_t index = 0;
};

/// What the generator recorded for one session.
struct SessionRecord {
  /// Uploads accepted onto the ring, in send order. With one injector the
  /// ring is FIFO, so for a session that lost no frame this is its
  /// admission order.
  std::vector<AdmittedUpload> sent;
  std::vector<Event> events;
  /// Per sent upload: due time and first time a published version
  /// covered it (ns, now_ns clock; -1 when not applicable / never).
  std::vector<std::int64_t> due_ns;
  std::vector<std::int64_t> covered_ns;
  /// Range of SessionRecord::sent sent in the open-loop phase.
  std::size_t open_begin = 0;
  std::size_t open_end = 0;
};

/// Latency and count samples of the timed phases.
struct PhaseSamples {
  std::vector<std::int64_t> request_due_ns;  // due time of each request
  std::vector<double> request_ns;            // due -> return
  std::vector<double> lateness_ns;           // due -> start, every op
  std::vector<double> send_ns;               // try_send calls (traced)
  std::vector<double> current_ns;            // current() calls (traced)
  std::size_t requests = 0;
  std::size_t uploads_attempted = 0;
  std::size_t uploads_unsent = 0;  // ring still refused past the deadline
  std::size_t lost = 0;            // sent but rejected or shed downstream
};

class Bench {
 public:
  /// `traced`: telemetry on and every generator call timed from outside.
  Bench(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
        bool traced);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Build inputs and host, warm every window up. Returns seconds taken.
  double setup();
  void open_loop();
  /// Returns uploads covered per second over all bursts.
  double saturation();
  /// Close the front end and stop the host (models are then stable).
  void finish();
  /// Every correctness check; an empty list when all hold.
  std::vector<std::string> check();

  const WorkloadSpec& spec() const { return spec_; }
  const PhaseSamples& samples() const { return samples_; }
  const std::vector<SessionRecord>& records() const { return records_; }
  const FramePool& pool(std::size_t session) const { return pools_[session]; }
  fleet::runtime::ConcurrentFleetServer& server() { return *server_; }
  const fleet::net::IngestStats& final_ingest() const { return ingest_final_; }
  /// Bitwise checks made: of whole runs (sessions that lost no frame), and
  /// of loss-free prefixes (sessions that lost frames later).
  std::size_t bitwise_checked() const { return bitwise_checked_; }
  std::size_t bitwise_prefix_checked() const { return bitwise_prefix_checked_; }

  /// Open-loop latencies: median over time windows of each window's
  /// percentile.
  double upload_latency_ms(double q) const;
  double request_latency_us(double q) const;

 private:
  void sender_open(std::size_t thread, std::int64_t start_ns,
                   std::int64_t end_ns);
  void poller_open(std::size_t thread, std::int64_t start_ns);
  void sender_closed(std::size_t thread, std::size_t phase,
                     std::size_t uploads, std::size_t outstanding,
                     PhaseSamples* samples);
  void poller_closed(std::size_t thread, PhaseSamples* samples);
  void observer();
  bool send(std::size_t session, std::uint32_t device, std::uint64_t version,
            std::int64_t due, std::int64_t deadline, PhaseSamples* samples);
  fleet::core::TaskAssignment request(std::size_t session,
                                      std::uint32_t device, std::int64_t due,
                                      PhaseSamples* samples, bool log);
  std::size_t lost_so_far() const;
  bool polls_caught_up() const;
  void drain();
  /// After a drain: keep each session's model while no frame is lost.
  void checkpoint();
  void merge(PhaseSamples&& from);

  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  const double seconds_;
  const bool traced_;

  std::vector<std::unique_ptr<fleet::nn::Sequential>> models_;
  std::vector<FramePool> pools_;
  std::vector<fleet::core::ModelId> ids_;
  std::vector<OpenLoopSchedule> open_;
  std::vector<PollSchedule> polls_;
  std::vector<SessionRecord> records_;
  std::unique_ptr<fleet::runtime::ConcurrentFleetServer> server_;
  std::unique_ptr<fleet::net::LoopbackIngest> ingest_;
  fleet::net::IngestStats ingest_final_;
  std::size_t bitwise_checked_ = 0;
  std::size_t bitwise_prefix_checked_ = 0;
  /// Per session, the last published model taken while the host had lost
  /// no frame, and the uploads it covers.
  struct Checkpoint {
    std::size_t uploads = 0;
    fleet::core::ModelStore::Snapshot snapshot;
  };
  std::vector<Checkpoint> clean_;

  PhaseSamples samples_;
  std::vector<PhaseSamples> thread_samples_;
  std::atomic<bool> stop_observer_{false};
  std::atomic<bool> uploads_done_{false};
  std::atomic<bool> polling_{false};
  std::atomic<std::size_t> cycles_started_{0};
  std::atomic<std::size_t> polls_done_{0};
};

/// Peak resident set size of this process in MiB (ru_maxrss, the
/// kernel's VmHWM).
double rss_peak_mib();

}  // namespace servebench
