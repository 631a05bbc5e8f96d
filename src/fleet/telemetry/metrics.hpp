#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fleet::telemetry {

/// Number of cache-line-separated cells each metric stripes its updates
/// across. Threads are assigned a cell round-robin on first touch, so up to
/// kStripes concurrent writers never share a line; beyond that they share
/// pairwise, never globally. Snapshot readers sum every cell.
inline constexpr std::size_t kMetricStripes = 16;

/// The stripe this thread writes metrics into (stable for the thread's
/// lifetime; assigned round-robin on first use).
std::size_t metric_stripe();

// ---- standard bucket layouts ---------------------------------------------

/// Latency buckets in nanoseconds: 1-2.5-5 per decade from 1us to 10s,
/// covering queue waits, fold spans and publishes on any hardware tier.
std::vector<double> latency_bounds_ns();

/// Staleness buckets (tau is a small non-negative integer under normal
/// load): unit steps to 8, then roughly x1.5 to 256.
std::vector<double> staleness_bounds();

/// Dampening-weight buckets in (0, 1]: log-ish steps so the decayed tail
/// (lambda^tau for large tau) stays resolvable.
std::vector<double> weight_bounds();

/// Drain-batch-size buckets: powers of two to 4096 (the default queue
/// capacity).
std::vector<double> batch_bounds();

/// Percentage buckets (0-100] for occupancy/fill ratios — e.g. how full a
/// planner's drain batches run against their limit ("planner.occupancy_pct").
std::vector<double> occupancy_bounds();

// ---- snapshot value types ------------------------------------------------

/// One merged histogram at a point in time. `bounds` are ascending upper
/// bounds (a value lands in the first bucket with value <= bound); the
/// final entry of `counts` is the overflow (+inf) bucket, so
/// counts.size() == bounds.size() + 1. An empty snapshot (count == 0,
/// bounds possibly empty) merges as the identity.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Approximate quantile (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the q-th sample; the overflow bucket reports `max`.
  /// 0 when empty.
  double quantile(double q) const;

  /// Accumulate `other` into this snapshot. Both must share bucket bounds
  /// unless one side is empty (the empty side adopts the other's bounds).
  /// Mismatched non-empty bounds throw std::invalid_argument.
  void merge(const HistogramSnapshot& other);
};

/// Full registry snapshot, insertion-ordered (stable export key order).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// The named histogram, or nullptr.
  const HistogramSnapshot* histogram(const std::string& name) const;
  /// The named counter's value, or 0.
  std::uint64_t counter(const std::string& name) const;
};

// ---- live metric cells ---------------------------------------------------

/// Monotone counter: relaxed striped increments, summed at snapshot. The
/// snapshot is a consistent *per-cell* read, not a global atomic cut — by
/// design: the hot path never synchronizes with the reader.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[metric_stripe() % kMetricStripes].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t total() const;

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  Cell cells_[kMetricStripes];
};

/// Last-writer-wins gauge (occupancy, depth, high-water marks). Writers are
/// expected to be rare relative to counters, so one atomic suffices.
class Gauge {
 public:
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raise-only update for high-water-mark gauges.
  void record_max(std::uint64_t v);
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram with striped per-thread cells. record() is a
/// bucket search plus four relaxed atomic updates on this thread's own
/// cache line — no locks, no contention below kMetricStripes writers.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double value);
  HistogramSnapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Cell {
    explicit Cell(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  std::size_t bucket_of(double value) const;

  std::vector<double> bounds_;
  std::deque<Cell> cells_;  // deque: Cell is not movable (atomics)
};

// ---- registry ------------------------------------------------------------

/// Named metrics directory. Registration (startup / session-construction
/// rate) takes a mutex; the returned handles are stable pointers the hot
/// path uses lock-free for the registry's lifetime. Re-registering a name
/// returns the existing metric (histograms must agree on bounds).
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name, std::vector<double> bounds);

  /// Merge every metric's cells into one insertion-ordered snapshot. Each
  /// metric is internally consistent; the snapshot is not one atomic cut
  /// across metrics (the hot path never pays for one).
  MetricsSnapshot snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* find(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // deque: handles must survive growth
};

}  // namespace fleet::telemetry
