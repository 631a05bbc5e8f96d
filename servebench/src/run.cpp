#include "run.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>

#include "fleet/device/catalog.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"
#include "stats.hpp"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

/// Drain-batch cap of every workload: bounds the publish cadence under
/// backlog and makes planner occupancy observable.
constexpr std::size_t kDrainBatch = 64;
/// Open-loop latency percentiles are taken per time window of the phase,
/// and the median over windows is reported: a descheduling episode from
/// outside the process lands on a few windows of a run, while a change to
/// the code that slows more than half of the run moves the figure. A
/// window holds at least ten samples beyond the percentile it reports; a
/// phase with fewer samples is one window.
constexpr std::size_t kMaxLatencyWindows = 16;
/// Pause of a generator thread that has nothing to do but wait for the
/// host: polling a version or a full ring any harder only takes a core
/// (and the ring mutex) from the host.
constexpr std::chrono::microseconds kIdlePoll{20};
/// Uploads per session sent but not yet covered during warm-up: few
/// enough that queueing adds little staleness to the round trips, so the
/// windows fill with the staleness profile the open loop then sees rather
/// than the saturation phase's.
constexpr std::size_t kWarmupOutstanding = 8;
/// The saturation phase runs in this many equal bursts.
constexpr std::size_t kSaturationBursts = 5;
/// Device cycles the saturation senders may run ahead of the pollers.
constexpr std::size_t kPollSlack = 2;
/// A closed-loop phase that has not finished after this long has hung.
constexpr std::int64_t kPhaseWatchdogNs = 120'000'000'000;

void wait_until(std::int64_t due) {
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= due) return;
    // Sleep while far from due (timer slack is ~50 us); spin the rest.
    if (due - now > 150'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

std::vector<fleet::profiler::Observation> profile_dataset() {
  return fleet::profiler::collect_profile_dataset(
      fleet::device::training_fleet(), fleet::profiler::IProf::Config{}.slo,
      20);
}

/// Median over time windows of the q-quantile of each window's values;
/// `due` orders the samples in time.
double windowed_quantile(const std::vector<std::int64_t>& due,
                         const std::vector<double>& values, double q) {
  if (due.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(due.begin(), due.end());
  const double span = static_cast<double>(*hi - *lo) + 1.0;
  const auto per_window = static_cast<std::size_t>(10.0 / (1.0 - q));
  const std::size_t count = std::clamp<std::size_t>(
      due.size() / per_window, 1, kMaxLatencyWindows);
  std::vector<std::vector<double>> windows(count);
  for (std::size_t i = 0; i < due.size(); ++i) {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(due[i] - *lo) / span * static_cast<double>(count));
    windows[std::min(w, count - 1)].push_back(values[i]);
  }
  std::vector<double> per_window_q;
  for (auto& w : windows) {
    if (!w.empty()) per_window_q.push_back(quantile(std::move(w), q));
  }
  return quantile(std::move(per_window_q), 0.5);
}

/// Threads whose failures surface on join(): once all have ended, the
/// first exception any of them threw is rethrown.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  template <typename F>
  void spawn(F fn) {
    threads_.emplace_back([this, fn = std::move(fn)] {
      try {
        fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
    });
  }

  void join() {
    for (auto& t : threads_) t.join();
    threads_.clear();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

/// An upload waiting for its device to finish computing.
struct Pending {
  std::int64_t due = 0;  // ns (open loop) or session cycle (closed loop)
  std::uint32_t session = 0;
  std::uint32_t device = 0;
  std::uint64_t version = 0;
  bool operator>(const Pending& o) const { return due > o.due; }
};

using PendingHeap =
    std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>;

}  // namespace

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

Bench::Bench(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
             bool traced)
    : spec_(spec), seed_(seed), seconds_(seconds), traced_(traced) {}

Bench::~Bench() {
  // The front end and host hold references to the models: tear them down
  // first.
  ingest_.reset();
  server_.reset();
}

double Bench::setup() {
  const std::int64_t t0 = now_ns();
  const fleet::core::ServerConfig config = server_config(spec_);
  fleet::runtime::RuntimeConfig runtime;
  runtime.queue_capacity = spec_.queue_capacity;
  runtime.planner_threads = spec_.planners;
  runtime.aggregation_shards = spec_.fold_shards;
  runtime.max_drain_batch = kDrainBatch;
  runtime.telemetry.enabled = traced_;
  server_ = std::make_unique<fleet::runtime::ConcurrentFleetServer>(runtime);

  const auto dataset = profile_dataset();
  for (std::size_t s = 0; s < spec_.tenants; ++s) {
    models_.push_back(make_model(spec_.model, model_seed(seed_, s)));
    auto iprof = std::make_unique<fleet::profiler::IProf>(
        fleet::profiler::IProf::Config{});
    iprof->pretrain(dataset);
    ids_.push_back(server_->register_model(*models_.back(), std::move(iprof),
                                           config));
    pools_.push_back(make_pool(ids_.back(), models_.back()->parameter_count(),
                               models_.back()->n_classes(), seed_));
    open_.push_back(make_open_loop(spec_, pools_.back(), s, seconds_, seed_));
    SessionRecord rec;
    const std::size_t cap = spec_.warmup_uploads + open_.back().arrival_s.size() +
                            spec_.saturation_uploads + 64;
    rec.sent.reserve(cap);
    rec.due_ns.assign(cap, -1);
    rec.covered_ns.assign(cap, -1);
    records_.push_back(std::move(rec));
  }
  clean_.resize(spec_.tenants);
  for (std::size_t r = 0; r < spec_.request_threads; ++r) {
    polls_.push_back(make_poll_schedule(spec_, r, seconds_, seed_));
  }
  fleet::net::LoopbackIngest::Config ingest;
  ingest.injector_threads = 1;  // FIFO ring: admission order == send order
  ingest_ = std::make_unique<fleet::net::LoopbackIngest>(*server_, ingest);

  // Warm-up: closed loop until every staleness and controller window is
  // full, so timing starts in the steady state a long-lived server sees.
  std::vector<PhaseSamples> discard(spec_.upload_threads);
  ThreadGroup senders;
  for (std::size_t t = 0; t < spec_.upload_threads; ++t) {
    senders.spawn([this, t, &discard] {
      sender_closed(t, 0, spec_.warmup_uploads, kWarmupOutstanding,
                    &discard[t]);
    });
  }
  senders.join();
  drain();
  const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  checkpoint();
  return seconds;
}

void Bench::drain() {
  ingest_->drain();
  server_->drain();
}

void Bench::checkpoint() {
  // While the host has lost no frame, every session's published model is
  // the replay of everything it was sent: keep it for the bitwise check of
  // sessions that lose frames later.
  if (lost_so_far() != 0) return;
  for (std::size_t s = 0; s < spec_.tenants; ++s) {
    auto current = server_->current(ids_[s]);
    if (current.version == records_[s].sent.size()) {
      clean_[s] = {current.version, std::move(current.snapshot)};
    }
  }
}

std::size_t Bench::lost_so_far() const {
  const auto s = ingest_->stats();
  return s.server_rejects + s.wire_rejects + s.shed_drops;
}

fleet::core::TaskAssignment Bench::request(std::size_t session,
                                           std::uint32_t device,
                                           std::int64_t due,
                                           PhaseSamples* samples, bool log) {
  const Device& d = pools_[session].devices[device];
  auto assignment =
      server_->handle_request(ids_[session], d.features, d.model, d.labels);
  ++samples->requests;
  if (due >= 0) {
    samples->request_due_ns.push_back(due);
    samples->request_ns.push_back(static_cast<double>(now_ns() - due));
  }
  if (log) {
    records_[session].events.push_back(
        {Event::Kind::kRequest, assignment.accepted, device});
  }
  return assignment;
}

bool Bench::send(std::size_t session, std::uint32_t device,
                 std::uint64_t version, std::int64_t due,
                 std::int64_t deadline, PhaseSamples* samples) {
  // Only the header's task version changes; the frame was encoded at
  // set-up. The pool belongs to this session's one sender thread, and
  // try_send copies the bytes, so patching in place is safe.
  auto& frame = pools_[session].frames[device];
  patch_task_version(frame, version);
  ++samples->uploads_attempted;
  for (;;) {
    const std::int64_t t0 = traced_ ? now_ns() : 0;
    const bool ok = ingest_->try_send(frame);
    if (ok) {
      if (traced_) samples->send_ns.push_back(static_cast<double>(now_ns() - t0));
      break;
    }
    if (now_ns() > deadline) {
      ++samples->uploads_unsent;
      return false;
    }
    std::this_thread::sleep_for(kIdlePoll);
  }
  SessionRecord& rec = records_[session];
  const std::size_t j = rec.sent.size();
  rec.sent.push_back({version, device});
  if (j < rec.due_ns.size()) rec.due_ns[j] = due;
  rec.events.push_back(
      {Event::Kind::kUpload, true, static_cast<std::uint32_t>(j)});
  return true;
}

void Bench::sender_open(std::size_t thread, std::int64_t start_ns,
                        std::int64_t end_ns) {
  PhaseSamples& smp = thread_samples_[thread];
  struct Arrival {
    std::int64_t due;
    std::uint32_t session;
    std::uint32_t cycle;
  };
  std::vector<Arrival> arrivals;
  for (std::size_t s = thread; s < spec_.tenants; s += spec_.upload_threads) {
    const auto& sched = open_[s];
    for (std::size_t k = 0; k < sched.arrival_s.size(); ++k) {
      arrivals.push_back({start_ns + static_cast<std::int64_t>(
                                         sched.arrival_s[k] * 1e9),
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(k)});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
  // An upload the ring still refuses this long after the phase ended is
  // counted as not served.
  const std::int64_t deadline = end_ns + 1'000'000'000;
  PendingHeap uploads;
  std::size_t next = 0;
  while (next < arrivals.size() || !uploads.empty()) {
    const bool arrival =
        next < arrivals.size() &&
        (uploads.empty() || arrivals[next].due <= uploads.top().due);
    const std::int64_t due = arrival ? arrivals[next].due : uploads.top().due;
    wait_until(due);
    smp.lateness_ns.push_back(static_cast<double>(now_ns() - due));
    if (arrival) {
      const Arrival a = arrivals[next++];
      const auto& sched = open_[a.session];
      const std::uint32_t device = sched.device[a.cycle];
      const auto assignment = request(a.session, device, due, &smp, true);
      if (assignment.accepted) {
        uploads.push({due + static_cast<std::int64_t>(sched.delay_s[a.cycle] * 1e9),
                      a.session, device, assignment.model_version});
      }
    } else {
      const Pending p = uploads.top();
      uploads.pop();
      send(p.session, p.device, p.version, p.due, deadline, &smp);
    }
  }
}

void Bench::poller_open(std::size_t thread, std::int64_t start_ns) {
  PhaseSamples& smp = thread_samples_[spec_.upload_threads + thread];
  const PollSchedule& sched = polls_[thread];
  const std::size_t session = thread % spec_.tenants;
  for (std::size_t k = 0; k < sched.at_s.size(); ++k) {
    const std::int64_t due =
        start_ns + static_cast<std::int64_t>(sched.at_s[k] * 1e9);
    wait_until(due);
    smp.lateness_ns.push_back(static_cast<double>(now_ns() - due));
    request(session, sched.device[k], due, &smp, false);
    const std::int64_t t0 = now_ns();
    (void)server_->current(ids_[session]);
    if (traced_) smp.current_ns.push_back(static_cast<double>(now_ns() - t0));
  }
}

void Bench::observer() {
  PhaseSamples& smp = thread_samples_.back();
  std::vector<std::size_t> last(spec_.tenants);
  for (std::size_t s = 0; s < spec_.tenants; ++s) {
    last[s] = server_->current(ids_[s]).version;
  }
  std::size_t polls = 0;
  for (;;) {
    const bool stopping = stop_observer_.load(std::memory_order_acquire);
    for (std::size_t s = 0; s < spec_.tenants; ++s) {
      const std::int64_t t0 = now_ns();
      const std::size_t v = server_->current(ids_[s]).version;
      const std::int64_t t1 = now_ns();
      if (traced_ && polls++ % 16 == 0) {
        smp.current_ns.push_back(static_cast<double>(t1 - t0));
      }
      // With K = 1 version v covers the session's first v uploads.
      auto& covered = records_[s].covered_ns;
      for (std::size_t j = last[s]; j < v && j < covered.size(); ++j) {
        covered[j] = t1;
      }
      last[s] = std::max(last[s], v);
    }
    if (stopping) return;
    std::this_thread::sleep_for(kIdlePoll);
  }
}

void Bench::merge(PhaseSamples&& from) {
  auto append = [](auto& to, auto& src) {
    to.insert(to.end(), src.begin(), src.end());
  };
  append(samples_.request_due_ns, from.request_due_ns);
  append(samples_.request_ns, from.request_ns);
  append(samples_.lateness_ns, from.lateness_ns);
  append(samples_.send_ns, from.send_ns);
  append(samples_.current_ns, from.current_ns);
  samples_.requests += from.requests;
  samples_.uploads_attempted += from.uploads_attempted;
  samples_.uploads_unsent += from.uploads_unsent;
}

void Bench::open_loop() {
  for (auto& rec : records_) rec.open_begin = rec.sent.size();
  const std::size_t lost_before = lost_so_far();
  thread_samples_.assign(spec_.upload_threads + spec_.request_threads + 1, {});
  const std::int64_t start = now_ns() + 2'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds_ * 1e9);
  stop_observer_.store(false);
  ThreadGroup watcher;
  watcher.spawn([this] { observer(); });
  ThreadGroup generators;
  for (std::size_t t = 0; t < spec_.upload_threads; ++t) {
    generators.spawn([this, t, start, end] { sender_open(t, start, end); });
  }
  for (std::size_t r = 0; r < spec_.request_threads; ++r) {
    generators.spawn([this, r, start] { poller_open(r, start); });
  }
  std::exception_ptr failed;
  try {
    generators.join();
    drain();
  } catch (...) {
    failed = std::current_exception();
  }
  stop_observer_.store(true, std::memory_order_release);
  watcher.join();
  if (failed) std::rethrow_exception(failed);
  checkpoint();
  for (auto& rec : records_) rec.open_end = rec.sent.size();
  for (auto& smp : thread_samples_) merge(std::move(smp));
  samples_.lost += lost_so_far() - lost_before;
}

void Bench::sender_closed(std::size_t thread, std::size_t phase,
                          std::size_t uploads, std::size_t outstanding,
                          PhaseSamples* samples) {
  struct State {
    std::size_t session;
    ClosedLoopDraws draws;
    std::size_t base_version;
    std::size_t cycles = 0;
    std::size_t sent = 0;
    PendingHeap held;  // computing devices, keyed by release cycle
  };
  std::vector<State> states;
  for (std::size_t s = thread; s < spec_.tenants; s += spec_.upload_threads) {
    states.push_back({s, ClosedLoopDraws(spec_, pools_[s], s, seed_, phase),
                      server_->current(ids_[s]).version, 0, 0, {}});
  }
  const std::size_t lost_base = lost_so_far();
  std::size_t lost = 0;
  const std::int64_t watchdog = now_ns() + kPhaseWatchdogNs;
  auto release = [&](State& st) {
    const Pending p = st.held.top();
    st.held.pop();
    send(st.session, p.device, p.version, -1, now_ns() + 30'000'000'000LL,
         samples);
    ++st.sent;
  };
  for (;;) {
    bool all_done = true;
    bool progressed = false;
    for (State& st : states) {
      if (st.sent == uploads) continue;
      all_done = false;
      // Devices wait for their upload to be covered by a published
      // version before they count as done (closed loop); frames the host
      // lost never will be, so they are released by the loss count.
      const std::size_t covered =
          server_->current(ids_[st.session]).version - st.base_version + lost;
      const std::size_t uncovered = st.sent - std::min(st.sent, covered);
      const bool quota_left = st.sent + st.held.size() < uploads;
      const bool can_cycle =
          quota_left && uncovered < outstanding && polls_caught_up();
      if (can_cycle) {
        const std::uint32_t device = st.draws.device();
        const std::size_t lag = st.draws.lag_cycles(device);
        const auto assignment = request(st.session, device, -1, samples, true);
        ++st.cycles;
        cycles_started_.fetch_add(1, std::memory_order_relaxed);
        if (assignment.accepted) {
          st.held.push({static_cast<std::int64_t>(st.cycles + lag),
                        static_cast<std::uint32_t>(st.session), device,
                        assignment.model_version});
        }
        progressed = true;
      }
      while (!st.held.empty() &&
             st.held.top().due <= static_cast<std::int64_t>(st.cycles)) {
        release(st);
        progressed = true;
      }
      // With no cycles left to start, the lags cannot elapse: release the
      // devices still computing in their order.
      if (!quota_left && !st.held.empty()) {
        release(st);
        progressed = true;
      }
    }
    if (all_done) return;
    if (!progressed) {
      lost = lost_so_far() - lost_base;
      if (now_ns() > watchdog) {
        throw std::runtime_error("closed-loop phase did not finish");
      }
      std::this_thread::sleep_for(kIdlePoll);
    }
  }
}

bool Bench::polls_caught_up() const {
  // Pollers run only in the saturation phase; there the senders wait for
  // them, so every burst runs at the workload's requests-per-cycle ratio
  // whichever side the scheduler favours.
  if (spec_.request_threads == 0 || !polling_.load(std::memory_order_relaxed)) {
    return true;
  }
  const std::size_t per_cycle = spec_.requests_per_cycle - 1;
  return polls_done_.load(std::memory_order_relaxed) + per_cycle * kPollSlack >=
         per_cycle * cycles_started_.load(std::memory_order_relaxed);
}

void Bench::poller_closed(std::size_t thread, PhaseSamples* samples) {
  const std::size_t session = thread % spec_.tenants;
  ClosedLoopDraws draws(spec_, pools_[session], 1000 + thread, seed_, 0);
  const std::size_t per_cycle = spec_.requests_per_cycle - 1;
  while (!uploads_done_.load(std::memory_order_acquire)) {
    std::size_t done = polls_done_.load(std::memory_order_relaxed);
    if (done >= per_cycle * cycles_started_.load(std::memory_order_relaxed) ||
        !polls_done_.compare_exchange_weak(done, done + 1)) {
      std::this_thread::sleep_for(kIdlePoll);
      continue;
    }
    request(session, draws.device(), -1, samples, false);
    const std::int64_t t0 = now_ns();
    (void)server_->current(ids_[session]);
    if (traced_) samples->current_ns.push_back(static_cast<double>(now_ns() - t0));
  }
}

double Bench::saturation() {
  std::size_t covered_total = 0;
  std::int64_t busy_ns = 0;
  const std::size_t per_burst = spec_.saturation_uploads / kSaturationBursts;
  for (std::size_t b = 1; b <= kSaturationBursts; ++b) {
    const std::size_t lost_before = lost_so_far();
    std::vector<std::size_t> base(spec_.tenants);
    for (std::size_t s = 0; s < spec_.tenants; ++s) {
      base[s] = server_->current(ids_[s]).version;
    }
    thread_samples_.assign(spec_.upload_threads + spec_.request_threads, {});
    uploads_done_.store(false);
    cycles_started_.store(0);
    polls_done_.store(0);
    polling_.store(true);
    const std::int64_t t0 = now_ns();
    ThreadGroup senders;
    ThreadGroup pollers;
    for (std::size_t t = 0; t < spec_.upload_threads; ++t) {
      senders.spawn([this, t, b, per_burst] {
        sender_closed(t, b, per_burst, spec_.closed_loop_outstanding,
                      &thread_samples_[t]);
      });
    }
    for (std::size_t r = 0; r < spec_.request_threads; ++r) {
      pollers.spawn([this, r] {
        poller_closed(r, &thread_samples_[spec_.upload_threads + r]);
      });
    }
    std::exception_ptr failed;
    try {
      senders.join();
    } catch (...) {
      failed = std::current_exception();
    }
    uploads_done_.store(true, std::memory_order_release);
    pollers.join();
    polling_.store(false);
    if (failed) std::rethrow_exception(failed);
    drain();
    const std::int64_t t1 = now_ns();
    checkpoint();
    std::size_t covered = 0;
    for (std::size_t s = 0; s < spec_.tenants; ++s) {
      covered += server_->current(ids_[s]).version - base[s];
    }
    covered_total += covered;
    busy_ns += t1 - t0;
    std::cerr << "[servebench] saturation burst " << b << ": " << covered
              << " uploads in " << static_cast<double>(t1 - t0) * 1e-9
              << " s\n";
    for (auto& smp : thread_samples_) merge(std::move(smp));
    samples_.lost += lost_so_far() - lost_before;
  }
  return static_cast<double>(covered_total) /
         (static_cast<double>(busy_ns) * 1e-9);
}

void Bench::finish() {
  ingest_->close();
  ingest_final_ = ingest_->stats();
  server_->stop();
}

std::vector<std::string> Bench::check() {
  std::vector<std::string> failures;
  if (auto e = check_ledger(ingest_final_); !e.empty()) failures.push_back(e);
  const fleet::core::ServerConfig config = server_config(spec_);
  std::vector<std::string> bitwise(spec_.tenants);
  ThreadGroup replays;
  for (std::size_t s = 0; s < spec_.tenants; ++s) {
    const auto stats = server_->stats(ids_[s]);
    const std::string who = "session " + std::to_string(s) + ": ";
    if (auto e = check_session(stats, server_->version(ids_[s]),
                               config.aggregator.aggregation_k);
        !e.empty()) {
      failures.push_back(who + e);
    }
    const auto params = models_[s]->parameters_view();
    if (auto e = check_finite(params); !e.empty()) failures.push_back(who + e);
    // A session that lost frames is checked up to the last drain before
    // the first loss, where its published model covered all it was sent.
    std::span<const AdmittedUpload> sent = records_[s].sent;
    std::span<const float> got = params;
    if (sent.size() == stats.submitted) {
      ++bitwise_checked_;
    } else if (clean_[s].snapshot != nullptr) {
      ++bitwise_prefix_checked_;
      sent = sent.first(clean_[s].uploads);
      got = *clean_[s].snapshot;
    } else {
      continue;
    }
    replays.spawn([this, s, sent, got, &config, &bitwise] {
      const auto want = reference_replay(spec_.model, model_seed(seed_, s),
                                         config, decode_pool(pools_[s]), sent);
      bitwise[s] = check_bitwise(got, want);
    });
  }
  replays.join();
  for (std::size_t s = 0; s < spec_.tenants; ++s) {
    if (!bitwise[s].empty()) {
      failures.push_back("session " + std::to_string(s) + ": " + bitwise[s]);
    }
  }
  return failures;
}

double Bench::upload_latency_ms(double q) const {
  std::vector<std::int64_t> due;
  std::vector<double> latency;
  for (const auto& rec : records_) {
    for (std::size_t j = rec.open_begin; j < rec.open_end; ++j) {
      if (rec.due_ns[j] < 0 || rec.covered_ns[j] < 0) continue;
      due.push_back(rec.due_ns[j]);
      latency.push_back(static_cast<double>(rec.covered_ns[j] - rec.due_ns[j]) *
                        1e-6);
    }
  }
  return windowed_quantile(due, latency, q);
}

double Bench::request_latency_us(double q) const {
  std::vector<double> us(samples_.request_ns.size());
  for (std::size_t i = 0; i < us.size(); ++i) us[i] = samples_.request_ns[i] * 1e-3;
  return windowed_quantile(samples_.request_due_ns, us, q);
}

double rss_peak_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

}  // namespace servebench
