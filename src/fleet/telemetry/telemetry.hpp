#pragma once

#include <cstddef>
#include <cstdint>

#include "fleet/telemetry/metrics.hpp"
#include "fleet/telemetry/trace.hpp"

namespace fleet::telemetry {

/// Runtime knob block (RuntimeConfig::telemetry). Off by default: the
/// serving hot path then pays only the pre-existing relaxed counter
/// increments and each session's own staleness/weight histograms — no
/// clock reads, no ring writes, no other histogram updates.
struct TelemetryConfig {
  bool enabled = false;
  /// Per-thread trace-ring capacity in events (rounded up to a power of
  /// two). A full ring drops events and counts the drops; it never blocks.
  std::size_t trace_ring_capacity = 1u << 15;
};

/// One serving host's observability substrate: a metrics registry (named
/// counters / gauges / fixed-bucket histograms, striped cells, no hot-path
/// locks) plus a trace collector (per-thread bounded SPSC rings of
/// gradient-lifecycle events). Timing is *observed* here and never
/// consulted by any scheduling or learning decision — telemetry on/off is
/// bitwise-invisible in every model (the determinism matrix asserts it).
class Telemetry {
 public:
  explicit Telemetry(const TelemetryConfig& config = {})
      : tracer_(config.trace_ring_capacity) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceCollector& tracer() { return tracer_; }

  /// steady_clock ns since construction — the shared timestamp base.
  std::uint64_t now_ns() const { return tracer_.now_ns(); }

  /// Emit one instant lifecycle event stamped `ts_ns`.
  void instant(TracePhase phase, std::uint64_t ts_ns, std::uint64_t ticket,
               core::ModelId model, std::uint64_t b = 0) {
    TraceEvent ev;
    ev.ts_ns = ts_ns;
    ev.ticket = ticket;
    ev.b = b;
    ev.model = model;
    ev.phase = phase;
    tracer_.emit(ev);
  }

  /// Close a span opened at `t0` (a now_ns() reading): one clock read, the
  /// duration into `duration_ns` when given, and the complete event.
  void end_span(TracePhase phase, std::uint64_t t0, core::ModelId model,
                std::uint64_t b, Histogram* duration_ns = nullptr) {
    TraceEvent ev;
    ev.ts_ns = t0;
    ev.a = now_ns() - t0;
    ev.b = b;
    ev.model = model;
    ev.phase = phase;
    if (duration_ns != nullptr) {
      duration_ns->record(static_cast<double>(ev.a));
    }
    tracer_.emit(ev);
  }

 private:
  MetricsRegistry metrics_;
  TraceCollector tracer_;
};

}  // namespace fleet::telemetry
