#pragma once

// Pressure-adaptive drain batching (DESIGN.md §13).
//
// Each planner thread owns one AdaptiveBatcher and feeds it two counters
// after every drain: how many jobs the drain took, and the group's
// windowed queue-depth peak. Every `window` drains the controller votes:
// widen when the backlog peak overran the current limit, narrow when the
// queue stayed shallow AND batches ran mostly empty, hold otherwise. A
// vote only acts after `hysteresis` consecutive windows agree, and the
// limit moves by powers of two inside [min_batch, max_batch].
//
// §11 invariant (counters, not clocks): the controller reads ONLY values
// derived from queue/batch occupancy — never telemetry timestamps or
// latency histograms. That keeps the drain schedule independent of
// whether telemetry is enabled, which the determinism matrix's
// telemetry on/off axis checks bitwise. Results are batch-size-invariant
// anyway (batching changes publication cadence, never fold order), but
// the counters-only rule keeps the *schedule* reproducible too.
//
// Single writer (the owning planner); `limit()` and `stats()` may be read
// concurrently by stats collectors, so the published fields are relaxed
// atomics.

#include <atomic>
#include <cstddef>

namespace fleet::runtime {

struct AdaptiveBatchConfig {
  /// Master switch. When false the server drains with the pinned
  /// `max_drain_batch`.
  bool enabled = false;
  std::size_t min_batch = 8;
  std::size_t max_batch = 512;
  /// Drains per control window (one vote per window).
  std::size_t window = 4;
  /// Consecutive agreeing windows before a vote moves the limit.
  std::size_t hysteresis = 2;
  /// Widen when the windowed depth peak exceeds ratio × limit.
  double widen_depth_ratio = 1.0;
  /// Narrow only when the depth peak stays under ratio × limit ...
  double narrow_depth_ratio = 0.25;
  /// ... and mean batch fill is under this fraction of the limit.
  double narrow_occupancy = 0.5;
};

class AdaptiveBatcher {
 public:
  AdaptiveBatcher(const AdaptiveBatchConfig& config, std::size_t initial);

  /// Current drain limit (always in [min_batch, max_batch]).
  std::size_t limit() const { return limit_.load(std::memory_order_relaxed); }

  /// Feed one drain's counters: jobs taken and the owning group's depth
  /// peak over the window since the previous drain.
  void observe(std::size_t taken, std::size_t depth_peak);

  struct Stats {
    std::size_t limit = 0;
    std::size_t widenings = 0;
    std::size_t narrowings = 0;
    std::size_t windows = 0;
  };
  Stats stats() const;

 private:
  void decide();

  AdaptiveBatchConfig config_;
  std::atomic<std::size_t> limit_;
  std::atomic<std::size_t> widenings_{0};
  std::atomic<std::size_t> narrowings_{0};
  std::atomic<std::size_t> windows_{0};

  // Window accumulators and the hysteresis streak: planner-thread-only.
  std::size_t drains_in_window_ = 0;
  std::size_t taken_in_window_ = 0;
  std::size_t depth_peak_in_window_ = 0;
  int streak_ = 0;  // >0: consecutive widen votes, <0: narrow votes
};

}  // namespace fleet::runtime
