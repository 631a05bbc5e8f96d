#include "fleet/runtime/concurrent_server.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "fleet/runtime/topology.hpp"
#include "fleet/tensor/kernels/scratch.hpp"

namespace fleet::runtime {

namespace {

std::size_t validate_planner_count(std::size_t planners) {
  if (planners == 0) {
    throw std::invalid_argument(
        "ConcurrentFleetServer: planner_threads must be >= 1");
  }
  return planners;
}

}  // namespace

ConcurrentFleetServer::ConcurrentFleetServer(const RuntimeConfig& runtime)
    : max_drain_batch_(runtime.max_drain_batch),
      planner_count_(validate_planner_count(runtime.planner_threads)),
      adaptive_(runtime.adaptive_batch),
      policy_(runtime.overload_policy),
      fault_(runtime.fault_injector),
      wire_decoder_(runtime.wire_limits),
      telemetry_(runtime.telemetry.enabled
                     ? std::make_unique<telemetry::Telemetry>(runtime.telemetry)
                     : nullptr),
      queue_(runtime.queue_capacity, runtime.queue_shards, telemetry_.get(),
             planner_count_, policy_, runtime.shed_watermark),
      paused_(runtime.start_paused) {
  if (runtime.aggregation_shards == 0) {
    throw std::invalid_argument(
        "ConcurrentFleetServer: aggregation_shards must be >= 1");
  }
  // Pin the arithmetic kernel backend before any planner (or fold) runs a
  // single op. kAuto keeps the startup selection; an unavailable explicit
  // choice throws here, at construction, not mid-fold.
  if (runtime.kernel_backend != tensor::kernels::Backend::kAuto) {
    tensor::kernels::pin_backend(runtime.kernel_backend);
  }
  if (telemetry_ != nullptr) {
    wire_rejects_ctr_ = telemetry_->metrics().counter("wire.rejects");
    pinning_fallback_ctr_ =
        telemetry_->metrics().counter("server.pinning_fallback");
    drain_batch_ = telemetry_->metrics().histogram("server.drain_batch",
                                                   telemetry::batch_bounds());
    session_fold_ns_ = telemetry_->metrics().histogram(
        "server.session_fold_ns", telemetry::latency_bounds_ns());
    publish_ns_ = telemetry_->metrics().histogram(
        "server.publish_ns", telemetry::latency_bounds_ns());
    batch_limit_ = telemetry_->metrics().histogram("planner.batch_limit",
                                                   telemetry::batch_bounds());
    planner_occupancy_ = telemetry_->metrics().histogram(
        "planner.occupancy_pct", telemetry::occupancy_bounds());
    queue_depth_gauge_ = telemetry_->metrics().gauge("queue.depth");
    // Registered unconditionally (not only when a shed policy or injector
    // is configured): a zero-valued counter still exports, so dashboards
    // and the CI exporter check can assert the metric exists on every
    // telemetry-enabled host.
    shed_ctr_ = telemetry_->metrics().counter("queue.shed");
    quarantine_ctr_ = telemetry_->metrics().counter("server.fold_quarantines");
  }
  // Control-plane placement (DESIGN.md §13): one CPU per planner and per
  // fold worker, co-placed per NUMA node, from sysfs discovery or the
  // explicit override. Computed only when pinning was requested — an
  // unpinned host never reads sysfs.
  const std::size_t fold_workers = runtime.aggregation_shards - 1;
  PlacementPlan plan;
  plan.planner_cpus.assign(planner_count_, -1);
  plan.fold_worker_cpus.assign(fold_workers, -1);
  if (runtime.pin_fold_workers) {
    if (!runtime.placement_override.empty()) {
      for (std::size_t i = 0; i < runtime.placement_override.size(); ++i) {
        if (i < planner_count_) {
          plan.planner_cpus[i] = runtime.placement_override[i];
        } else if (i - planner_count_ < fold_workers) {
          plan.fold_worker_cpus[i - planner_count_] =
              runtime.placement_override[i];
        }
      }
    } else {
      plan = plan_placement(discover_topology(), planner_count_, fold_workers);
    }
  }
  // The one fold path (DESIGN.md §9): every session's plan runs on this
  // pool. With one shard it spawns no thread and the waiting planner runs
  // the plan inline.
  sharded_ = std::make_unique<ShardedAggregator>(runtime.aggregation_shards,
                                                 plan.fold_worker_cpus,
                                                 telemetry_.get(), fault_);
  // One adaptive controller per planner. The starting limit is the pinned
  // max_drain_batch (clamped into the adaptive range); 0 (= "take
  // everything") starts at the adaptive ceiling.
  const std::size_t initial_limit =
      max_drain_batch_ > 0 ? max_drain_batch_ : adaptive_.max_batch;
  for (std::size_t p = 0; p < planner_count_; ++p) {
    batchers_.emplace_back(adaptive_, initial_limit);
  }
  // Progress ticks sized before any planner thread exists — the threads
  // write their own entry from their first batch on.
  for (std::size_t p = 0; p < planner_count_; ++p) {
    planner_progress_.emplace_back(0);
  }
  planner_threads_.reserve(planner_count_);
  std::size_t requested_pins = 0;
  std::size_t applied_pins = 0;
  for (std::size_t p = 0; p < planner_count_; ++p) {
    planner_threads_.emplace_back([this, p] { planner_loop(p); });
    if (runtime.pin_fold_workers && plan.planner_cpus[p] >= 0) {
      ++requested_pins;
      if (pin_thread_to_cpu(planner_threads_.back().native_handle(),
                            plan.planner_cpus[p])) {
        ++applied_pins;
      }
    }
  }
  if (runtime.pin_fold_workers) {
    for (std::size_t w = 0; w < fold_workers; ++w) {
      if (plan.fold_worker_cpus[w] >= 0) ++requested_pins;
    }
    applied_pins += sharded_->pinned_workers();
    const bool applied = requested_pins > 0 && applied_pins == requested_pins;
    pinning_applied_.store(applied, std::memory_order_release);
    if (!applied) {
      // Satellite of DESIGN.md §13: pinning was asked for but could not
      // (fully) apply — unsupported platform, restrictive cpuset, or an
      // override naming CPUs this machine doesn't have. One warning, one
      // counter bump; the host runs unpinned, results unaffected.
      if (pinning_fallback_ctr_ != nullptr) pinning_fallback_ctr_->add(1);
      std::fprintf(stderr,
                   "fleet: pin_fold_workers requested but only %zu of %zu "
                   "control-plane pins applied (%s); continuing unpinned\n",
                   applied_pins, requested_pins,
                   affinity_supported() ? "cpuset or cpu refused"
                                        : "platform unsupported");
    }
  }
}

ConcurrentFleetServer::ConcurrentFleetServer(
    nn::TrainableModel& model, std::unique_ptr<profiler::Profiler> profiler,
    const core::ServerConfig& config, const RuntimeConfig& runtime)
    : ConcurrentFleetServer(runtime) {
  register_model(model, std::move(profiler), config);
}

ConcurrentFleetServer::~ConcurrentFleetServer() { stop(); }

core::ModelId ConcurrentFleetServer::register_model(
    nn::TrainableModel& model, std::unique_ptr<profiler::Profiler> profiler,
    const core::ServerConfig& config) {
  const core::ModelId id =
      next_model_id_.fetch_add(1, std::memory_order_relaxed);
  // The session publishes its version-0 snapshot in its constructor,
  // before it becomes visible in the registry — a request thread that can
  // find the session never sees an empty store. It also caches its fold
  // span partition here, for the host pool's shard count.
  registry_.add(std::make_shared<ModelSession>(
      id, model, std::move(profiler), config, sharded_->shard_count(),
      telemetry_.get()));
  return id;
}

bool ConcurrentFleetServer::retire_model(core::ModelId id) {
  return registry_.retire(id) != nullptr;
}

std::shared_ptr<ModelSession> ConcurrentFleetServer::require(
    core::ModelId id) const {
  auto session = registry_.lookup(id);
  if (session == nullptr) {
    throw std::out_of_range(
        "ConcurrentFleetServer: unknown or retired model id");
  }
  return session;
}

ConcurrentFleetServer::VersionedSnapshot ConcurrentFleetServer::current(
    core::ModelId id) const {
  return require(id)->current();
}

std::size_t ConcurrentFleetServer::version(core::ModelId id) const {
  return require(id)->version();
}

core::TaskAssignment ConcurrentFleetServer::handle_request(
    core::ModelId id, const profiler::DeviceFeatures& features,
    const std::string& device_model,
    const stats::LabelDistribution& label_info) {
  auto session = registry_.lookup(id);
  if (session == nullptr) {
    core::TaskAssignment assignment;
    assignment.accepted = false;
    assignment.model_id = id;
    assignment.reject_reason = "unknown or retired model";
    return assignment;
  }
  return session->handle_request(features, device_model, label_info);
}

core::TaskAssignment ConcurrentFleetServer::handle_request(
    const profiler::DeviceFeatures& features, const std::string& device_model,
    const stats::LabelDistribution& label_info) {
  return handle_request(core::kDefaultModelId, features, device_model,
                        label_info);
}

core::GradientReceipt ConcurrentFleetServer::try_submit(GradientJob& job) {
  core::GradientReceipt receipt;
  receipt.model_id = job.model_id;
  auto session = registry_.lookup(job.model_id);
  if (session == nullptr) {
    receipt.accepted = false;
    receipt.reject_reason = "unknown or retired model";
    return receipt;
  }
  // Malformed payloads are refused at admission: past this point the job
  // is processed on the aggregation thread, where a throw would take the
  // whole process down instead of surfacing to the caller. Every input
  // the downstream components throw on must be screened here.
  if (const char* reason = session->validate(job)) {
    receipt.accepted = false;
    receipt.reject_reason = reason;
    return receipt;
  }
  // Deterministic transient-backpressure injection (DESIGN.md §14): report
  // "queue full" without consulting the queue — indistinguishable from the
  // real condition to the caller, so retry loops exercise their real path.
  if (fault_ != nullptr && fault_->should_fire(FaultSite::kQueueFull)) {
    receipt.accepted = false;
    receipt.reject_reason = "ingest queue full (injected fault)";
    receipt.retryable = true;
    return receipt;
  }
  if (policy_ != OverloadPolicy::kRejectNewest) {
    // Shed policies weigh jobs at admission: stamp the estimate on every
    // admitted job (it may become a later push's victim), then push with
    // an eviction slot.
    job.shed_cost = session->shed_cost(job, policy_);
    GradientJob evicted;
    switch (queue_.push(job, &evicted)) {
      case GradientQueue::PushOutcome::kAccepted:
        break;
      case GradientQueue::PushOutcome::kAcceptedEvicted: {
        // The victim was counted into accepted_ when it was admitted; it
        // will never be drained, so account it processed-or-dropped here —
        // otherwise drain() waits for it forever.
        shed_drops_.fetch_add(1, std::memory_order_relaxed);
        if (telemetry_ != nullptr) {
          shed_ctr_->add(1);
          telemetry_->instant(telemetry::TracePhase::kShedDrop,
                              telemetry_->now_ns(), evicted.ticket,
                              evicted.model_id);
        }
        processed_or_dropped_.fetch_add(1, std::memory_order_acq_rel);
        {
          std::lock_guard<std::mutex> lock(drain_mu_);
        }
        drain_cv_.notify_all();
        break;
      }
      case GradientQueue::PushOutcome::kShedIncoming:
        // Refused before any ticket was drawn: the job never entered the
        // accounting, so only the shed counter moves.
        shed_drops_.fetch_add(1, std::memory_order_relaxed);
        if (telemetry_ != nullptr) {
          shed_ctr_->add(1);
          telemetry_->instant(telemetry::TracePhase::kShedDrop,
                              telemetry_->now_ns(), 0, job.model_id);
        }
        receipt.accepted = false;
        receipt.shed = true;
        receipt.reject_reason = "shed by overload policy";
        return receipt;
      case GradientQueue::PushOutcome::kRejectedFull:
        receipt.accepted = false;
        receipt.reject_reason = "ingest queue full (backpressure)";
        receipt.retryable = true;
        return receipt;
      case GradientQueue::PushOutcome::kRejectedClosed:
        receipt.accepted = false;
        receipt.reject_reason = "ingest queue closed";
        return receipt;
    }
  } else if (!queue_.try_push(job)) {
    receipt.accepted = false;
    if (queue_.closed()) {
      receipt.reject_reason = "ingest queue closed";
    } else {
      receipt.reject_reason = "ingest queue full (backpressure)";
      receipt.retryable = true;
    }
    return receipt;
  }
  session->note_submitted();
  accepted_.fetch_add(1, std::memory_order_acq_rel);
  receipt.accepted = true;
  receipt.version = session->version();
  return receipt;
}

core::GradientReceipt ConcurrentFleetServer::try_submit_wire(
    std::span<const std::uint8_t> frame, GradientJob& scratch,
    net::WireError* decode_error) {
  // Decode strictly before admission: a frame that survives this point is
  // a plain GradientJob, so ticket order, session demux and the fold path
  // see nothing wire-specific (DESIGN.md §12).
  const net::WireError error = wire_decoder_.decode(frame, scratch);
  if (decode_error != nullptr) *decode_error = error;
  if (error != net::WireError::kOk) {
    wire_rejects_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr) {
      wire_rejects_ctr_->add();
      // scratch.model_id is kDefaultModelId unless the header parsed.
      telemetry_->instant(telemetry::TracePhase::kWireReject,
                          telemetry_->now_ns(), 0, scratch.model_id,
                          static_cast<std::uint64_t>(error));
    }
    core::GradientReceipt receipt;
    receipt.accepted = false;
    receipt.model_id = scratch.model_id;
    receipt.reject_reason =
        std::string("wire: ") + net::wire_error_name(error);
    return receipt;
  }
  return try_submit(scratch);
}

void ConcurrentFleetServer::planner_loop(std::size_t planner) {
  std::vector<GradientJob> batch;
  // Planner-local demux state: this planner's sessions are disjoint from
  // every other planner's (id % planner_count_ routing, enforced by the
  // queue's group demux), so the slot pool needs no sharing or locking.
  std::deque<SessionSlot> slot_pool;
  AdaptiveBatcher& batcher = batchers_[planner];
  // Telemetry scratch: per-slot fold-submit timestamps.
  // Sized lazily to the slot pool; lives outside the loop so a steady-state
  // batch allocates nothing.
  std::vector<std::uint64_t> fold_submit_ns;
  // Per-batch demultiplexed state: one slot per session that appears in
  // the batch, in first-appearance order, acquired from the persistent
  // slot pool (`used` of `slot_pool_` are live this batch). The session
  // set per batch is tiny (tenant count, not job count), so a linear id
  // scan beats a map.
  std::size_t used = 0;
  auto acquire_slot = [&]() -> SessionSlot& {
    if (used == slot_pool.size()) {
      slot_pool.emplace_back();
      fold_buffer_growths_.fetch_add(1, std::memory_order_relaxed);
    }
    return slot_pool[used++];
  };
  // Resolve a job's session via the batch's slots first — one registry
  // lookup per (session, batch), not per job, keeps the fold path off the
  // directory's read lock that request threads contend on. nullptr means
  // the id is unknown/retired (a registry miss is re-probed per job, but
  // that only happens on the rare retired-backlog path).
  auto slot_for = [&](core::ModelId id) -> SessionSlot* {
    for (std::size_t i = 0; i < used; ++i) {
      if (slot_pool[i].session->id() == id) return &slot_pool[i];
    }
    auto session = registry_.lookup(id);
    if (session == nullptr) return nullptr;
    SessionSlot& slot = acquire_slot();
    slot.session = std::move(session);
    return &slot;
  };
  // Slots are reset at the END of each iteration, before the idle wait:
  // holding a SessionSlot's shared_ptr across wait_drain would pin a
  // just-retired session's O(|theta| * window) state until some other
  // model's gradient arrived. The plan buffers keep their capacity.

  while (true) {
    // Batch-granular pause gate: parked here, submits still queue up.
    {
      std::unique_lock<std::mutex> lock(pause_mu_);
      pause_cv_.wait(lock, [this] {
        return !paused_.load(std::memory_order_acquire) || queue_.closed();
      });
    }
    // Adaptive mode consults the controller's current limit; otherwise the
    // pinned max_drain_batch schedule (the benchmarking baseline).
    const std::size_t limit =
        adaptive_.enabled ? batcher.limit() : max_drain_batch_;
    const std::size_t taken = queue_.wait_drain(batch, limit, planner);
    if (taken == 0) break;  // closed and fully drained
    // Second gate: a pause() issued while this thread was blocked inside
    // wait_drain (past the top gate) must still hold the popped batch
    // unprocessed until resume().
    {
      std::unique_lock<std::mutex> lock(pause_mu_);
      pause_cv_.wait(lock, [this] {
        return !paused_.load(std::memory_order_acquire) || queue_.closed();
      });
    }
    // Deterministic planner-stall injection (DESIGN.md §14): a bounded
    // count of yields, never a clock — the batch is merely delayed, and
    // the other planners' progress ticks keep advancing past this one's.
    if (fault_ != nullptr && fault_->should_fire(FaultSite::kPlannerStall)) {
      const std::uint64_t configured =
          fault_->payload(FaultSite::kPlannerStall);
      const std::uint64_t spins = configured > 0 ? configured : 1000;
      for (std::uint64_t i = 0; i < spins; ++i) std::this_thread::yield();
    }
    // Feed the controller the counters it owns — batch occupancy and the
    // group's windowed depth peak — and nothing else: no telemetry clock
    // is ever read on this path, so the drain schedule is identical with
    // telemetry on or off (§11 invariant, checked bitwise by the matrix).
    if (adaptive_.enabled) {
      batcher.observe(taken, queue_.take_group_depth_peak(planner));
    }
    const std::uint64_t batch_t0 =
        telemetry_ != nullptr ? telemetry_->now_ns() : 0;
    if (telemetry_ != nullptr) {
      drain_batch_->record(static_cast<double>(taken));
      if (limit > 0) {
        batch_limit_->record(static_cast<double>(limit));
        planner_occupancy_->record(100.0 * static_cast<double>(taken) /
                                   static_cast<double>(limit));
      }
      // Depth right after the pop: what is still waiting behind this batch.
      queue_depth_gauge_->set(queue_.depth());
    }
    // Demultiplex the batch in global admission-ticket order. Each job's
    // order-sensitive bookkeeping runs against its own session as it is
    // reached, so per session the processing order is exactly the
    // session's own admission order — what a solo server would see.
    // Retired ids miss the registry lookup and are dropped, counted, and
    // never folded (their drain accounting rides on `taken`).
    // Concurrent fold scheduling (DESIGN.md §9): plan every job centrally
    // (staleness against its session's live clock, dampened weight, flush
    // points, profiler feedback), then submit ALL sessions' plans to the
    // shared fold scheduler at once — different sessions' spans execute
    // concurrently, since their arenas are disjoint — and wait once for
    // the whole batch. Plans' gradient spans point into `batch`, which
    // stays alive until the next drain.
    for (GradientJob& job : batch) {
      SessionSlot* slot = slot_for(job.model_id);
      if (slot == nullptr) {
        retired_drops_.fetch_add(1, std::memory_order_relaxed);
        if (telemetry_ != nullptr) {
          telemetry_->instant(telemetry::TracePhase::kDrop,
                              telemetry_->now_ns(), job.ticket, job.model_id);
        }
        continue;
      }
      const std::size_t plan_capacity = slot->plan.capacity();
      bool folded = false;
      try {
        folded = slot->session->plan_process(job, slot->plan);
      } catch (...) {
        // Plan quarantine: a throwing bookkeeping step degrades its own
        // session, never the planner thread or the other sessions.
        fold_quarantines_.fetch_add(1, std::memory_order_relaxed);
        if (quarantine_ctr_ != nullptr) quarantine_ctr_->add(1);
        slot->session->mark_degraded();
      }
      if (slot->plan.capacity() != plan_capacity) {
        fold_buffer_growths_.fetch_add(1, std::memory_order_relaxed);
      }
      if (telemetry_ != nullptr && folded) {
        telemetry_->instant(telemetry::TracePhase::kFold,
                            telemetry_->now_ns(), job.ticket, job.model_id);
      }
    }
    if (telemetry_ != nullptr && fold_submit_ns.size() < slot_pool.size()) {
      fold_submit_ns.resize(slot_pool.size());
    }
    for (std::size_t i = 0; i < used; ++i) {
      SessionSlot& slot = slot_pool[i];
      if (slot.plan.empty()) continue;
      if (telemetry_ != nullptr) fold_submit_ns[i] = telemetry_->now_ns();
      sharded_->submit(slot.session->fold_context(), slot.plan, slot.latch);
    }
    // One wait per batch; waiting in slot order is work-conserving (the
    // waiter executes queued tasks — any session's, any planner's — while
    // it waits).
    for (std::size_t i = 0; i < used; ++i) {
      SessionSlot& slot = slot_pool[i];
      sharded_->wait(slot.latch);
      // Span of this session's fold, submit -> the wait that resolved it.
      if (telemetry_ != nullptr && !slot.plan.empty()) {
        telemetry_->end_span(telemetry::TracePhase::kSessionFold,
                             fold_submit_ns[i], slot.session->id(),
                             slot.plan.size(), session_fold_ns_);
      }
      // Fold quarantine (DESIGN.md §14): a span task of this session's
      // plan threw — the pool caught it and resolved the latch anyway, so
      // only this session degrades (its arena may hold a partial fold);
      // every other session's batch, and the host, are unharmed.
      const std::size_t failures = slot.latch.take_failures();
      if (failures > 0) {
        fold_quarantines_.fetch_add(failures, std::memory_order_relaxed);
        if (quarantine_ctr_ != nullptr) quarantine_ctr_->add(failures);
        slot.session->mark_degraded();
      }
    }
    // One snapshot materialization per dirty session per drain batch,
    // however many updates it applied — under load this amortizes the
    // O(|theta|) copy across the whole backlog. Ordered per session: a
    // session publishes only after its own latch resolved above, so the
    // snapshot always reads a fully-folded arena.
    for (std::size_t i = 0; i < used; ++i) {
      SessionSlot& slot = slot_pool[i];
      const std::uint64_t p0 =
          telemetry_ != nullptr ? telemetry_->now_ns() : 0;
      const bool published = slot.session->publish_if_dirty();
      if (telemetry_ != nullptr && published) {
        telemetry_->end_span(telemetry::TracePhase::kPublish, p0,
                             slot.session->id(), slot.session->version(),
                             publish_ns_);
      }
      slot.session.reset();
      slot.plan.clear();  // keeps capacity for the next batch
    }
    used = 0;
    batch.clear();
    if (telemetry_ != nullptr) {
      telemetry_->end_span(telemetry::TracePhase::kDrainBatch, batch_t0,
                           core::kDefaultModelId, taken);
    }
    processed_or_dropped_.fetch_add(taken, std::memory_order_acq_rel);
    // Liveness tick last: a batch only counts once fully processed, so a
    // planner stuck anywhere above reads as "not progressing".
    planner_progress_[planner].fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
    }
    drain_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
  }
  drain_cv_.notify_all();
}

void ConcurrentFleetServer::drain() {
  // Every accepted job is eventually counted into processed_or_dropped_,
  // even after close(): the queue's close fence guarantees an accepted
  // push is visible to the aggregation thread's final sweep. No
  // closed-queue escape clause — it would let drain() return mid-batch,
  // before the counters (and the models) settle.
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return processed_or_dropped_.load(std::memory_order_acquire) >=
           accepted_.load(std::memory_order_acquire);
  });
}

void ConcurrentFleetServer::pause() {
  paused_.store(true, std::memory_order_release);
}

void ConcurrentFleetServer::resume() {
  paused_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
  }
  pause_cv_.notify_all();
}

void ConcurrentFleetServer::stop() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  resume();  // wake parked planner threads so they can drain and exit
  for (std::thread& planner : planner_threads_) {
    if (planner.joinable()) planner.join();
  }
}

RuntimeStats ConcurrentFleetServer::host_stats() const {
  // The queue is the single source of truth for capacity rejections — the
  // reject path stays free of any stats lock — and the occupancy gauges
  // are read shard by shard (each exact, the vector not one atomic cut;
  // see GradientQueue::shard_depths()).
  RuntimeStats snapshot;
  snapshot.backpressure_rejects = queue_.rejected();
  snapshot.retired_drops = retired_drops_.load(std::memory_order_acquire);
  snapshot.wire_rejects = wire_rejects_.load(std::memory_order_acquire);
  snapshot.queue_depth = queue_.depth();
  snapshot.queue_max_depth_seen = queue_.max_depth_seen();
  snapshot.queue_shard_depths = queue_.shard_depths();
  snapshot.fold_buffer_growths =
      fold_buffer_growths_.load(std::memory_order_acquire);
  snapshot.scratch_bytes_peak =
      tensor::kernels::ScratchAllocator::global_bytes_peak();
  snapshot.planner_threads = planner_count_;
  snapshot.pinning_applied = pinning_applied_.load(std::memory_order_acquire);
  if (adaptive_.enabled) {
    snapshot.planner_batch_limits.reserve(batchers_.size());
    for (const AdaptiveBatcher& batcher : batchers_) {
      const AdaptiveBatcher::Stats adaptive = batcher.stats();
      snapshot.planner_batch_limits.push_back(adaptive.limit);
      snapshot.adaptive_widenings += adaptive.widenings;
      snapshot.adaptive_narrowings += adaptive.narrowings;
    }
  }
  const auto pool = sharded_->pool_stats();
  snapshot.fold_tasks_executed = pool.tasks_executed;
  snapshot.fold_peak_pending = pool.peak_pending;
  if (const telemetry::Histogram* wait = queue_.wait_histogram()) {
    snapshot.queue_wait = wait->snapshot();
  }
  snapshot.shed_drops = shed_drops_.load(std::memory_order_acquire);
  snapshot.fold_quarantines =
      fold_quarantines_.load(std::memory_order_acquire);
  snapshot.planner_progress.reserve(planner_progress_.size());
  for (const auto& ticks : planner_progress_) {
    snapshot.planner_progress.push_back(
        ticks.load(std::memory_order_relaxed));
  }
  for (const core::ModelId id : registry_.ids()) {
    const auto session = registry_.lookup(id);
    if (session != nullptr && session->degraded()) {
      ++snapshot.degraded_sessions;
    }
  }
  return snapshot;
}

HealthSnapshot ConcurrentFleetServer::health() const {
  HealthSnapshot snapshot;
  snapshot.planner_progress.reserve(planner_progress_.size());
  for (const auto& ticks : planner_progress_) {
    snapshot.planner_progress.push_back(
        ticks.load(std::memory_order_relaxed));
  }
  for (const core::ModelId id : registry_.ids()) {
    const auto session = registry_.lookup(id);
    if (session != nullptr && session->degraded()) {
      snapshot.degraded_sessions.push_back(id);
    }
  }
  snapshot.shed_drops = shed_drops_.load(std::memory_order_acquire);
  snapshot.fold_quarantines =
      fold_quarantines_.load(std::memory_order_acquire);
  return snapshot;
}

RuntimeStats ConcurrentFleetServer::stats(core::ModelId id) const {
  // Host-wide fields as host_stats() reports them, overlaid with the
  // session-owned ones — a new host field needs no change here.
  const RuntimeStats session = require(id)->stats();
  RuntimeStats snapshot = host_stats();
  snapshot.submitted = session.submitted;
  snapshot.processed = session.processed;
  snapshot.model_updates = session.model_updates;
  snapshot.invalid_jobs = session.invalid_jobs;
  snapshot.staleness_hist = session.staleness_hist;
  snapshot.weight_hist = session.weight_hist;
  snapshot.degraded = session.degraded;
  return snapshot;
}

}  // namespace fleet::runtime
