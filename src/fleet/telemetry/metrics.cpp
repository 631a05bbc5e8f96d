#include "fleet/telemetry/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace fleet::telemetry {

std::size_t metric_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

std::vector<double> latency_bounds_ns() {
  std::vector<double> bounds;
  for (double decade = 1e3; decade <= 1e10; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.5);
    bounds.push_back(decade * 5.0);
  }
  return bounds;
}

std::vector<double> staleness_bounds() {
  return {0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256};
}

std::vector<double> weight_bounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05,
          0.1,  0.2,    0.3,  0.4,  0.5,    0.6,  0.7,  0.8,   0.9, 1.0};
}

std::vector<double> batch_bounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4096.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> occupancy_bounds() {
  return {5, 10, 25, 50, 75, 90, 95, 100};
}

// ---- HistogramSnapshot ---------------------------------------------------

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t next = seen + counts[b];
    if (static_cast<double>(next) >= target) {
      if (b >= bounds.size()) return max;  // overflow bucket
      const double lo =
          b == 0 ? std::min(min, bounds[0]) : bounds[b - 1];
      const double hi = bounds[b];
      const double into =
          (target - static_cast<double>(seen)) / static_cast<double>(counts[b]);
      // Interpolate within the bucket, but never report a value outside
      // the observed range — p100 is the recorded max, not a bucket edge.
      return std::clamp(lo + (hi - lo) * std::clamp(into, 0.0, 1.0), min, max);
    }
    seen = next;
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0 && other.bounds.empty()) return;
  if (count == 0 && bounds.empty()) {
    *this = other;
    return;
  }
  if (bounds != other.bounds) {
    throw std::invalid_argument(
        "HistogramSnapshot::merge: bucket bounds mismatch");
  }
  for (std::size_t b = 0; b < counts.size(); ++b) counts[b] += other.counts[b];
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& [key, hist] : histograms) {
    if (key == name) return &hist;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

// ---- Counter / Gauge -----------------------------------------------------

std::uint64_t Counter::total() const {
  std::uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::record_max(std::uint64_t v) {
  std::uint64_t seen = value_.load(std::memory_order_relaxed);
  while (v > seen && !value_.compare_exchange_weak(
                         seen, v, std::memory_order_relaxed,
                         std::memory_order_relaxed)) {
  }
}

// ---- Histogram -----------------------------------------------------------

namespace {

/// Relaxed accumulate on an atomic double (fetch_add on floating atomics is
/// C++20 but not uniformly lock-free across libstdc++ versions; the CAS
/// loop is, on every target we build for).
void atomic_add(std::atomic<double>& cell, double v) {
  double seen = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(seen, seen + v,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& cell, double v) {
  double seen = cell.load(std::memory_order_relaxed);
  while (v < seen && !cell.compare_exchange_weak(seen, v,
                                                 std::memory_order_relaxed,
                                                 std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& cell, double v) {
  double seen = cell.load(std::memory_order_relaxed);
  while (v > seen && !cell.compare_exchange_weak(seen, v,
                                                 std::memory_order_relaxed,
                                                 std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be ascending");
  }
  for (std::size_t s = 0; s < kMetricStripes; ++s) {
    cells_.emplace_back(bounds_.size() + 1);
  }
}

std::size_t Histogram::bucket_of(double value) const {
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

void Histogram::record(double value) {
  Cell& cell = cells_[metric_stripe() % kMetricStripes];
  cell.counts[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  atomic_add(cell.sum, value);
  atomic_min(cell.min, value);
  atomic_max(cell.max, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Cell& cell : cells_) {
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] += cell.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += cell.sum.load(std::memory_order_relaxed);
    snap.min = std::min(snap.min, cell.min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, cell.max.load(std::memory_order_relaxed));
  }
  for (const std::uint64_t c : snap.counts) snap.count += c;
  return snap;
}

// ---- MetricsRegistry -----------------------------------------------------

MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name,
                                              Kind kind) {
  for (Entry& entry : entries_) {
    if (entry.name != name) continue;
    if (entry.kind != kind) {
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' already registered as another kind");
    }
    return &entry;
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* entry = find(name, Kind::kCounter)) return entry->counter.get();
  Entry& entry = entries_.emplace_back();
  entry.name = name;
  entry.kind = Kind::kCounter;
  entry.counter = std::make_unique<Counter>();
  return entry.counter.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* entry = find(name, Kind::kGauge)) return entry->gauge.get();
  Entry& entry = entries_.emplace_back();
  entry.name = name;
  entry.kind = Kind::kGauge;
  entry.gauge = std::make_unique<Gauge>();
  return entry.gauge.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* entry = find(name, Kind::kHistogram)) {
    if (entry->histogram->bounds() != bounds) {
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' re-registered with different bounds");
    }
    return entry->histogram.get();
  }
  Entry& entry = entries_.emplace_back();
  entry.name = name;
  entry.kind = Kind::kHistogram;
  entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  return entry.histogram.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snap.counters.emplace_back(entry.name, entry.counter->total());
        break;
      case Kind::kGauge:
        snap.gauges.emplace_back(entry.name, entry.gauge->value());
        break;
      case Kind::kHistogram:
        snap.histograms.emplace_back(entry.name, entry.histogram->snapshot());
        break;
    }
  }
  return snap;
}

}  // namespace fleet::telemetry
