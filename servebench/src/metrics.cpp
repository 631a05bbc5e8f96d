#include "metrics.hpp"

#include <charconv>
#include <cmath>
#include <set>

namespace servebench {

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = {
      // End to end (untraced run).
      {"setup_s", "s", false},
      {"max_grads_per_s", "1/s", false},
      {"upload_p50_ms", "ms", false},
      {"request_p50_us", "us", false},
      {"served_frac", "ratio", false},
      {"rss_peak_mb", "MiB", false},
      // Per layer (traced run).
      {"upload_p90_ms", "ms", true},
      {"upload_p99_ms", "ms", true},
      {"request_p90_us", "us", true},
      {"request_p99_us", "us", true},
      {"net.send_ns_p50", "ns", true},
      {"net.send_ns_p99", "ns", true},
      {"net.ring_rejects_per_frame", "ratio", true},
      {"net.ring_max_bytes", "bytes", true},
      {"net.backpressure_retries_per_frame", "ratio", true},
      {"net.server_rejects", "count", true},
      {"net.wire_rejects", "count", true},
      {"net.decode_ns_per_frame", "ns", true},
      {"net.decode_mb_per_s", "MB/s", true},
      {"queue.admit_ns_p99", "ns", true},
      {"queue.wait_ns_p50", "ns", true},
      {"queue.wait_ns_p99", "ns", true},
      {"queue.depth_max", "count", true},
      {"queue.backpressure_rejects", "count", true},
      {"queue.shed_drops", "count", true},
      {"planner.drain_batch_mean", "count", true},
      {"planner.occupancy_pct_mean", "%", true},
      {"planner.progress_min", "count", true},
      {"plan.ns_per_grad_warm", "ns", true},
      {"plan.ns_per_grad_full", "ns", true},
      {"plan.full_over_warm", "ratio", true},
      {"fold.ns_per_grad", "ns", true},
      {"fold.tasks_executed", "count", true},
      {"fold.peak_pending", "count", true},
      {"fold.buffer_growths", "count", true},
      {"fold.scratch_bytes_peak", "bytes", true},
      {"publish.ns_p50", "ns", true},
      {"publish.ns_p99", "ns", true},
      {"publish.per_grad", "ratio", true},
      {"publish.ns_per_grad", "ns", true},
      {"snapshot.current_ns_p99", "ns", true},
      {"controller.admit_ns_warm", "ns", true},
      {"controller.admit_ns_full", "ns", true},
      {"controller.refused_frac", "ratio", true},
      {"profiler.predict_ns", "ns", true},
      {"session.staleness_p50", "updates", true},
      {"session.staleness_p99", "updates", true},
      {"session.weight_p50", "ratio", true},
      {"path.request_ns_per_upload", "ns", true},
      {"path.upload_ns_per_upload", "ns", true},
      {"gen.lateness_p99_ms", "ms", true},
      {"gen.ops_attempted", "count", true},
      {"failed_frac", "ratio", true},
      {"trace.overhead_frac", "ratio", true},
  };
  return table;
}

void Results::set(const std::string& name, double value) {
  values_[name] = value;
}

namespace {

std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

std::string Results::render(bool correct, unsigned long long attempted,
                            unsigned long long failed,
                            std::string* error) const {
  std::string metrics;
  std::set<std::string> expected;
  for (const MetricDef& def : metric_table()) {
    if (def.per_layer != traced_) continue;
    expected.insert(def.name);
    const auto it = values_.find(def.name);
    if (it == values_.end()) {
      *error = std::string("metric not measured: ") + def.name;
      return {};
    }
    if (!std::isfinite(it->second)) {
      *error = std::string("metric not finite: ") + def.name;
      return {};
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(def.name) + ": {\"value\": " + number(it->second) +
               ", \"unit\": " + quoted(def.unit) + "}";
  }
  for (const auto& [name, value] : values_) {
    if (expected.count(name) == 0) {
      *error = "metric not in the table for this run kind: " + name;
      return {};
    }
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

}  // namespace servebench
