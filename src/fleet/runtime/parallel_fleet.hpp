#pragma once

#include <cstdint>
#include <vector>

#include "fleet/core/worker.hpp"
#include "fleet/runtime/concurrent_server.hpp"

namespace fleet::runtime {

/// Parallel fleet driver: runs N OS threads of simulated workers against a
/// ConcurrentFleetServer, replacing the discrete-event simulation's
/// wall-clock-per-core with real hardware parallelism (DESIGN.md §6).
///
/// The drive is round-structured so runs stay reproducible:
///   A. (driver thread) every idle worker requests a task, in worker-index
///      order — each session's controller and profiler are order-sensitive,
///      so their admission history must evolve deterministically;
///   B. (N threads) accepted workers compute gradients in parallel — the
///      dominant cost, embarrassingly parallel because each worker owns its
///      replica, device sim and RNG. Each result draws an arrival delay and
///      a dropout coin from the worker's private stream;
///   C. (driver thread) gradients whose arrival round has come are pushed
///      into the server's ingest queue in worker-index order, then the
///      driver waits for the aggregation thread to drain them before the
///      next round's requests read the clocks.
///
/// Mixed workloads (DESIGN.md §7): Config::worker_models assigns each
/// worker to a registered ModelId, so one drive trains several tenants of
/// the same host concurrently. Requests and submissions route to the
/// worker's session; a worker whose model is not (or no longer) registered
/// is simply rejected and retries. Because every random draw still comes
/// from the worker's private index-keyed stream and the round structure is
/// unchanged, each session's final model is bitwise thread-count-invariant
/// AND identical to a drive where the other tenants' workers were rejected
/// — sessions share only the queue and the fold pool, never state.
///
/// Staleness emerges endogenously, as in the serial simulation: a gradient
/// computed against round r's clock arrives delay rounds later, after
/// lower-indexed submissions to the same session advanced that model.
/// Determinism: every random draw comes either from a per-worker stream
/// split off the base seed (stats::Rng::stream — independent of which
/// thread runs the worker) or from sequential driver-side code, so the
/// same seed produces the same final models for ANY thread count, provided
/// the server's queue capacity is >= the worker count (otherwise
/// backpressure, which is timing dependent, can reorder retries).
class ParallelFleet {
 public:
  struct Config {
    /// OS threads for the compute phase (>= 1).
    std::size_t n_threads = 2;
    /// Rounds to drive (each worker attempts ~1 task per round).
    std::size_t rounds = 20;
    /// Probability a computed gradient never arrives (churn), drawn from
    /// the worker's private stream. 0 disables and draws nothing.
    double dropout_prob = 0.0;
    /// Extra rounds a gradient may wait before arriving, uniform in
    /// [0, max_arrival_delay]. Induces staleness spread; 0 disables (and
    /// draws nothing), leaving only intra-round staleness.
    std::size_t max_arrival_delay = 0;
    std::uint64_t seed = 1;
    /// Per-worker model assignment for mixed workloads: worker w trains
    /// worker_models[w]. Empty = every worker trains
    /// core::kDefaultModelId (the single-model shim). When non-empty the
    /// size must match the worker vector. Each worker's replica must
    /// architecturally match its assigned model.
    std::vector<core::ModelId> worker_models;
  };

  /// Per-session server-side stats of one drive (ascending id order).
  struct ModelStats {
    core::ModelId id = core::kDefaultModelId;
    RuntimeStats runtime;
  };

  struct Stats {
    std::size_t requests = 0;
    std::size_t rejected = 0;            ///< controller/unknown-id rejections
    std::size_t gradients_submitted = 0;
    std::size_t dropped = 0;             ///< lost to dropout
    std::size_t backpressure_retries = 0;
    /// Non-retryable server rejections (validation failure / retired model
    /// / shutdown); the job is discarded — retrying an identical submit
    /// cannot succeed.
    std::size_t rejected_submissions = 0;
    /// Final-flush breakdown (DESIGN.md §14): of the totals above, how
    /// much came from the post-round delivery of still-in-flight delayed
    /// gradients. Split out because the final flush retries by draining
    /// the whole backlog per attempt — conflating its retries with the
    /// cheap mid-round ones hid how often the flush actually blocked, and
    /// conflating its drops with mid-round rejects hid gradients lost at
    /// the very end of a drive. Both are ALSO counted into
    /// backpressure_retries / rejected_submissions (these are a
    /// breakdown, not extra events).
    std::size_t final_flush_retries = 0;
    std::size_t final_flush_drops = 0;
    /// Aggregate server-side view after drain: per-model counters summed
    /// and staleness/weight histograms merged (for a single-model drive
    /// this is exactly that session's stats).
    RuntimeStats runtime;
    /// The same view per driven model, ascending id.
    std::vector<ModelStats> per_model;
  };

  ParallelFleet(ConcurrentFleetServer& server,
                std::vector<core::FleetWorker>& workers, const Config& config);

  /// Drive the fleet for the configured number of rounds; returns once the
  /// server has processed every surviving gradient.
  Stats run();

 private:
  ConcurrentFleetServer& server_;
  std::vector<core::FleetWorker>& workers_;
  Config config_;
};

}  // namespace fleet::runtime
