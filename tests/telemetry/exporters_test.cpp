// Schema/golden tests for the telemetry exporters (DESIGN.md §11) and the
// histogram snapshot arithmetic they rest on. Deterministic by
// construction: inputs are hand-built snapshots, never live timings.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/telemetry/export.hpp"
#include "fleet/telemetry/metrics.hpp"
#include "fleet/telemetry/trace.hpp"

namespace fleet::telemetry {
namespace {

TEST(HistogramSnapshotTest, QuantilesInterpolateInsideBuckets) {
  Histogram hist({10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) hist.record(5.0);    // bucket (..10]
  for (int i = 0; i < 10; ++i) hist.record(15.0);   // bucket (10..20]
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 20u);
  EXPECT_DOUBLE_EQ(snap.mean(), 10.0);
  EXPECT_DOUBLE_EQ(snap.min, 5.0);
  EXPECT_DOUBLE_EQ(snap.max, 15.0);
  // p50 sits at the first bucket's upper edge, p100 at the recorded max.
  EXPECT_LE(snap.quantile(0.5), 10.0);
  EXPECT_GT(snap.quantile(0.75), 10.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 15.0);
  // Empty histogram: quantile is 0, mean is 0.
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.mean(), 0.0);
}

TEST(HistogramSnapshotTest, OverflowValuesLandInTheLastBucket) {
  Histogram hist({1.0, 2.0});
  hist.record(100.0);
  const HistogramSnapshot snap = hist.snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);  // bounds + overflow
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 100.0);  // overflow reports max
}

TEST(HistogramSnapshotTest, MergeRequiresMatchingBoundsAndSumsExactly) {
  Histogram a({10.0, 20.0});
  Histogram b({10.0, 20.0});
  a.record(5.0);
  b.record(15.0);
  b.record(25.0);
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.sum, 45.0);
  EXPECT_DOUBLE_EQ(merged.min, 5.0);
  EXPECT_DOUBLE_EQ(merged.max, 25.0);
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[1], 1u);
  EXPECT_EQ(merged.counts[2], 1u);

  // Empty side adopts the other's bounds (the merge identity) …
  HistogramSnapshot empty;
  empty.merge(a.snapshot());
  EXPECT_EQ(empty.count, 1u);
  ASSERT_EQ(empty.bounds.size(), 2u);
  // … but non-empty mismatched bounds throw instead of mis-bucketing.
  Histogram c({1.0});
  c.record(0.5);
  HistogramSnapshot bad = c.snapshot();
  EXPECT_THROW(bad.merge(a.snapshot()), std::invalid_argument);
}

TEST(ExportersTest, MetricsJsonGolden) {
  MetricsRegistry registry;
  registry.counter("grads.processed")->add(3);
  registry.gauge("queue.depth")->set(7);
  Histogram* hist = registry.histogram("wait", {10.0, 20.0});
  hist->record(5.0);
  hist->record(25.0);
  const std::string json = metrics_to_json(registry.snapshot());
  EXPECT_EQ(json,
            "{\"counters\":{\"grads.processed\":3},"
            "\"gauges\":{\"queue.depth\":7},"
            "\"histograms\":{\"wait\":{\"bounds\":[10,20],"
            "\"counts\":[1,0,1],\"count\":2,\"sum\":30,"
            "\"min\":5,\"max\":25}}}");
}

TEST(ExportersTest, EmptyHistogramJsonOmitsMinMax) {
  MetricsRegistry registry;
  registry.histogram("empty", {1.0});
  const std::string json = metrics_to_json(registry.snapshot());
  // Infinities cannot be carried in JSON; an empty histogram simply has
  // no min/max keys.
  EXPECT_EQ(json.find("min"), std::string::npos);
  EXPECT_EQ(json.find("max"), std::string::npos);
  EXPECT_NE(json.find("\"count\":0"), std::string::npos);
}

TEST(ExportersTest, PrometheusExpositionGolden) {
  MetricsRegistry registry;
  registry.counter("grads.processed")->add(3);
  registry.gauge("queue.depth")->set(7);
  Histogram* hist = registry.histogram("queue.wait_ns", {10.0, 20.0});
  hist->record(5.0);
  hist->record(15.0);
  hist->record(25.0);
  const std::string text = metrics_to_prometheus(registry.snapshot());
  EXPECT_EQ(text,
            "# TYPE fleet_grads_processed_total counter\n"
            "fleet_grads_processed_total 3\n"
            "# TYPE fleet_queue_depth gauge\n"
            "fleet_queue_depth 7\n"
            "# TYPE fleet_queue_wait_ns histogram\n"
            "fleet_queue_wait_ns_bucket{le=\"10\"} 1\n"
            "fleet_queue_wait_ns_bucket{le=\"20\"} 2\n"
            "fleet_queue_wait_ns_bucket{le=\"+Inf\"} 3\n"
            "fleet_queue_wait_ns_sum 45\n"
            "fleet_queue_wait_ns_count 3\n");
}

TEST(ExportersTest, PrometheusBucketsAreCumulativeAndInfEqualsCount) {
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("h", latency_bounds_ns());
  for (int i = 0; i < 100; ++i) hist->record(1e6);
  const HistogramSnapshot snap = registry.snapshot().histograms[0].second;
  const std::string text = metrics_to_prometheus(registry.snapshot());
  // The +Inf bucket must equal _count (the Prometheus invariant).
  const std::string inf_line =
      "fleet_h_bucket{le=\"+Inf\"} " + std::to_string(snap.count);
  EXPECT_NE(text.find(inf_line), std::string::npos);
  EXPECT_NE(text.find("fleet_h_count 100"), std::string::npos);
}

TEST(ExportersTest, ChromeTraceJsonGolden) {
  std::vector<TraceRecord> records;
  TraceRecord submit;
  submit.event.ts_ns = 2500;
  submit.event.ticket = 42;
  submit.event.model = 1;
  submit.event.phase = TracePhase::kSubmit;
  submit.tid = 3;
  records.push_back(submit);
  TraceRecord fold;
  fold.event.ts_ns = 5000;
  fold.event.a = 1500;  // span duration ns
  fold.event.b = 9;
  fold.event.phase = TracePhase::kSessionFold;
  fold.tid = 1;
  records.push_back(fold);
  const std::string json = trace_to_chrome_json(records);
  EXPECT_EQ(json,
            "{\"traceEvents\":["
            "{\"name\":\"submit\",\"ph\":\"i\",\"ts\":2.5,\"pid\":1,"
            "\"tid\":3,\"s\":\"t\",\"args\":{\"ticket\":42,\"model\":1,"
            "\"b\":0}},"
            "{\"name\":\"session_fold\",\"ph\":\"X\",\"ts\":5,\"pid\":1,"
            "\"tid\":1,\"dur\":1.5,\"args\":{\"ticket\":0,\"model\":0,"
            "\"b\":9}}"
            "]}");
}

TEST(ExportersTest, EveryPhaseHasANameAndSpanClassification) {
  // The Chrome exporter writes phase_name() verbatim; an unnamed phase
  // would corrupt the JSON. Walk the whole vocabulary.
  const TracePhase all[] = {
      TracePhase::kSubmit,     TracePhase::kReject,  TracePhase::kDequeue,
      TracePhase::kDrop,       TracePhase::kFold,    TracePhase::kWireReject,
      TracePhase::kShedDrop,   TracePhase::kDrainBatch,
      TracePhase::kSessionFold, TracePhase::kPublish,
      TracePhase::kFoldTask,
  };
  int spans = 0;
  for (const TracePhase phase : all) {
    EXPECT_NE(std::string(phase_name(phase)), "");
    if (is_span(phase)) ++spans;
  }
  EXPECT_EQ(spans, 4);
}

TEST(ExportersTest, FormatNumberIsStableForGoldenOutputs) {
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(-3.0), "-3");
  EXPECT_EQ(format_number(0.25), "0.25");
  EXPECT_EQ(format_number(2.5), "2.5");
}

}  // namespace
}  // namespace fleet::telemetry
