#include "fleet/runtime/parallel_fleet.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "fleet/stats/rng.hpp"

namespace fleet::runtime {

namespace {

/// A gradient computed but not yet delivered: the worker is "in flight".
/// The snapshot handle stays pinned until arrival (or the dropout loss),
/// so ring eviction during a delayed flight never frees theta^(t_i).
struct Pending {
  std::size_t arrival_round = 0;
  bool dropped = false;
  GradientJob job;
  core::ModelStore::Snapshot snapshot;
};

/// Per-worker driver state. The RNG is a stream split off the base seed by
/// worker index, so delay/dropout draws do not depend on thread placement.
struct WorkerSlot {
  std::optional<core::TaskAssignment> assignment;  // accepted, not computed
  std::optional<Pending> pending;                  // computed, not delivered
  std::optional<stats::Rng> rng;
};

}  // namespace

ParallelFleet::ParallelFleet(ConcurrentFleetServer& server,
                             std::vector<core::FleetWorker>& workers,
                             const Config& config)
    : server_(server), workers_(workers), config_(config) {
  if (workers_.empty()) {
    throw std::invalid_argument("ParallelFleet: no workers");
  }
  if (config.n_threads == 0) {
    throw std::invalid_argument("ParallelFleet: n_threads must be >= 1");
  }
  if (config.rounds == 0) {
    throw std::invalid_argument("ParallelFleet: rounds must be >= 1");
  }
  if (config.dropout_prob < 0.0 || config.dropout_prob > 1.0) {
    throw std::invalid_argument("ParallelFleet: dropout_prob outside [0,1]");
  }
  if (!config.worker_models.empty() &&
      config.worker_models.size() != workers_.size()) {
    throw std::invalid_argument(
        "ParallelFleet: worker_models size does not match workers");
  }
}

ParallelFleet::Stats ParallelFleet::run() {
  Stats stats;
  const std::size_t n_workers = workers_.size();
  const std::size_t n_threads = std::min(config_.n_threads, n_workers);

  std::vector<WorkerSlot> slots(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    slots[w].rng = stats::Rng::stream(config_.seed, w);
  }
  const auto model_of = [this](std::size_t w) {
    return config_.worker_models.empty() ? core::kDefaultModelId
                                         : config_.worker_models[w];
  };

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    // --- Phase A: requests, sequentially in worker order. ---------------
    for (std::size_t w = 0; w < n_workers; ++w) {
      WorkerSlot& slot = slots[w];
      if (slot.assignment.has_value() || slot.pending.has_value()) continue;
      ++stats.requests;
      core::TaskAssignment assignment = server_.handle_request(
          model_of(w), workers_[w].device_info(),
          workers_[w].device().model_name(), workers_[w].label_info());
      if (!assignment.accepted) {
        ++stats.rejected;  // retries next round
        continue;
      }
      slot.assignment = std::move(assignment);
    }

    // --- Phase B: gradient computation, in parallel. --------------------
    // Static partition by index: each worker (replica, device sim, RNG) is
    // touched by exactly one thread; the dataset is shared read-only.
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto compute = [&](std::size_t thread_id) {
      for (std::size_t w = thread_id; w < n_workers; w += n_threads) {
        WorkerSlot& slot = slots[w];
        if (!slot.assignment.has_value()) continue;
        try {
          core::FleetWorker::ExecutionResult result =
              workers_[w].execute(*slot.assignment);
          Pending pending;
          pending.arrival_round = round;
          if (config_.max_arrival_delay > 0) {
            pending.arrival_round += static_cast<std::size_t>(
                slot.rng->uniform_int(
                    0, static_cast<std::int64_t>(config_.max_arrival_delay)));
          }
          pending.dropped = config_.dropout_prob > 0.0 &&
                            slot.rng->bernoulli(config_.dropout_prob);
          pending.job.model_id = slot.assignment->model_id;
          pending.job.task_version = slot.assignment->model_version;
          pending.job.gradient = std::move(result.gradient);
          pending.job.label_dist = result.minibatch_labels;
          pending.job.mini_batch = result.mini_batch;
          pending.job.feedback = result.observation;
          pending.snapshot = std::move(slot.assignment->snapshot);
          slot.pending = std::move(pending);
          slot.assignment.reset();
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    if (n_threads == 1) {
      compute(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(n_threads);
      for (std::size_t t = 0; t < n_threads; ++t) {
        pool.emplace_back(compute, t);
      }
      for (std::thread& thread : pool) thread.join();
    }
    if (first_error) std::rethrow_exception(first_error);

    // --- Phase C: due arrivals, sequentially in worker order. -----------
    for (std::size_t w = 0; w < n_workers; ++w) {
      WorkerSlot& slot = slots[w];
      if (!slot.pending.has_value() || slot.pending->arrival_round > round) {
        continue;
      }
      if (slot.pending->dropped) {
        ++stats.dropped;
        slot.pending.reset();
        continue;
      }
      const core::GradientReceipt receipt =
          server_.try_submit(slot.pending->job);
      if (!receipt.accepted) {
        if (receipt.retryable) {
          ++stats.backpressure_retries;  // job intact; retry next round
        } else {
          ++stats.rejected_submissions;  // permanent: discard, don't loop
          slot.pending.reset();
        }
        continue;
      }
      ++stats.gradients_submitted;
      slot.pending.reset();
    }

    // Barrier: the next round's requests must read a settled clock.
    server_.drain();
  }

  // Deliver what is still in flight (delayed arrivals past the last round).
  for (std::size_t w = 0; w < n_workers; ++w) {
    WorkerSlot& slot = slots[w];
    if (!slot.pending.has_value()) continue;
    if (slot.pending->dropped) {
      ++stats.dropped;
      continue;
    }
    // Unlike the mid-run path there is no next round to retry in, so on
    // backpressure wait for the backlog to clear and resubmit — a
    // computed, surviving gradient must never be silently lost. Permanent
    // rejections (validation, shutdown) can never succeed, so they are
    // counted and discarded instead of retried.
    while (true) {
      const core::GradientReceipt receipt =
          server_.try_submit(slot.pending->job);
      if (receipt.accepted) {
        ++stats.gradients_submitted;
        break;
      }
      if (!receipt.retryable) {
        // A permanently rejected final-flush gradient is gone for good —
        // count it in both the drive-wide total and the flush breakdown.
        ++stats.rejected_submissions;
        ++stats.final_flush_drops;
        break;
      }
      ++stats.backpressure_retries;
      ++stats.final_flush_retries;
      server_.drain();
    }
  }
  server_.drain();

  // Server-side view per driven session, plus the summed aggregate. The
  // host-wide fields come from host_stats() so they survive even when no
  // driven session resolves anymore: a session retired mid-drive has its
  // queued jobs accounted in retired_drops, which the caller needs
  // precisely in that case.
  stats.runtime = server_.host_stats();
  std::vector<core::ModelId> ids;
  if (config_.worker_models.empty()) {
    ids.push_back(core::kDefaultModelId);
  } else {
    ids = config_.worker_models;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  for (const core::ModelId id : ids) {
    ModelStats per;
    per.id = id;
    try {
      per.runtime = server_.stats(id);
    } catch (const std::out_of_range&) {
      continue;  // never registered, or retired (possibly mid-collection)
    }
    stats.runtime.submitted += per.runtime.submitted;
    stats.runtime.processed += per.runtime.processed;
    stats.runtime.model_updates += per.runtime.model_updates;
    stats.runtime.invalid_jobs += per.runtime.invalid_jobs;
    // All sessions share the standard bucket layouts, so the aggregate
    // histogram is an exact merge, not an approximation.
    stats.runtime.staleness_hist.merge(per.runtime.staleness_hist);
    stats.runtime.weight_hist.merge(per.runtime.weight_hist);
    // Host-wide fields are already set from host_stats() above (they are
    // identical in every per-model view).
    stats.per_model.push_back(std::move(per));
  }
  return stats;
}

}  // namespace fleet::runtime
