#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace servebench {

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace servebench
