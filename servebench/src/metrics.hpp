#pragma once

// The benchmark's metric table — the one place names and units live — and
// the result line printed as the last line of standard output.

#include <map>
#include <string>
#include <vector>

namespace servebench {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Reported by the traced run (--trace 1) instead of the untraced one.
  bool per_layer;
};

const std::vector<MetricDef>& metric_table();

/// Collects one run's metric values and renders the result line. Every
/// metric of the run's kind must be set; render() refuses
/// (returns an empty string) otherwise.
class Results {
 public:
  explicit Results(bool traced) : traced_(traced) {}

  void set(const std::string& name, double value);

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {...}}, or
  /// empty with `error` set when a metric is missing, unknown or not
  /// finite.
  std::string render(bool correct, unsigned long long attempted,
                     unsigned long long failed, std::string* error) const;

 private:
  bool traced_;
  std::map<std::string, double> values_;
};

}  // namespace servebench
