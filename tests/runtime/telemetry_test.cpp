// Concurrency tests for the telemetry substrate (DESIGN.md §11) and the
// runtime's gradient-lifecycle instrumentation. This suite runs under the
// CI ThreadSanitizer job (label "runtime"), so the registry/ring hammers
// double as race checks on the striped cells and the SPSC rings.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "fleet/telemetry/telemetry.hpp"

namespace fleet::telemetry {
namespace {

TEST(MetricsRegistryTest, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  // Half the threads race the registration itself: re-registering a name
  // must return the same counter.
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry] {
      Counter* counter = registry.counter("hammer");
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter->add();
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(registry.snapshot().counter("hammer"), kThreads * kPerThread);
}

TEST(MetricsRegistryTest, HistogramHammerWithConcurrentSnapshots) {
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("lat", latency_bounds_ns());
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::atomic<bool> stop{false};
  // A reader snapshotting mid-hammer must always see internally consistent
  // histograms (count == sum of buckets), never torn bucket vectors.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const HistogramSnapshot snap = hist->snapshot();
      std::uint64_t bucket_total = 0;
      for (const std::uint64_t c : snap.counts) bucket_total += c;
      EXPECT_EQ(bucket_total, snap.count);
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist->record(static_cast<double>(1000 * (t + 1) + i % 7));
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  const HistogramSnapshot snap = hist->snapshot();
  EXPECT_EQ(snap.count, kWriters * kPerThread);
  EXPECT_GE(snap.min, 1000.0);
  EXPECT_LE(snap.max, 4006.0);
}

TEST(TraceRingTest, OverflowDropsAreCountedExactly) {
  TraceRing ring(8, 1);  // capacity rounds to 8
  const std::size_t capacity = ring.capacity();
  const std::size_t attempts = capacity + 13;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < attempts; ++i) {
    TraceEvent ev;
    ev.ticket = i;
    if (ring.try_push(ev)) ++accepted;
  }
  EXPECT_EQ(accepted, capacity);
  EXPECT_EQ(ring.dropped(), attempts - capacity);

  // The ring kept the OLDEST events (drops refuse the new event, they
  // never overwrite), in order.
  std::vector<TraceRecord> out;
  EXPECT_EQ(ring.pop_into(out), capacity);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].event.ticket, i);
    EXPECT_EQ(out[i].tid, 1u);
  }
  // Freed slots accept again; the drop counter is cumulative.
  TraceEvent ev;
  EXPECT_TRUE(ring.try_push(ev));
  EXPECT_EQ(ring.dropped(), attempts - capacity);
}

TEST(TraceCollectorTest, ThreadsGetDistinctRingsAndNothingIsLost) {
  TraceCollector collector(1u << 10);
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 500;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&collector, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        TraceEvent ev;
        ev.ticket = t * kPerThread + i;
        collector.emit(ev);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  // Rings of exited threads still drain.
  const std::vector<TraceRecord> records = collector.collect();
  ASSERT_EQ(records.size(), kThreads * kPerThread);
  EXPECT_EQ(collector.dropped(), 0u);
  EXPECT_EQ(collector.ring_count(), kThreads);
  std::set<std::uint32_t> tids;
  std::set<std::uint64_t> tickets;
  for (const TraceRecord& record : records) {
    tids.insert(record.tid);
    tickets.insert(record.event.ticket);
  }
  EXPECT_EQ(tids.size(), kThreads);                 // one lane per thread
  EXPECT_EQ(tickets.size(), kThreads * kPerThread);  // every event exactly once
}

TEST(TraceCollectorTest, CollectorsDoNotAliasThreadCaches) {
  // Two collectors used from the same thread must route to their own rings
  // (the thread-local cache is keyed by collector identity).
  TraceCollector a(64);
  TraceCollector b(64);
  TraceEvent ev;
  a.emit(ev);
  a.emit(ev);
  b.emit(ev);
  EXPECT_EQ(a.collect().size(), 2u);
  EXPECT_EQ(b.collect().size(), 1u);
}

TEST(TelemetryTest, InstantAndEndSpanFillEveryEventField) {
  Telemetry telemetry;
  Histogram* span_ns =
      telemetry.metrics().histogram("span", latency_bounds_ns());
  telemetry.instant(TracePhase::kDequeue, 42, 7, 3, 99);
  const std::uint64_t t0 = telemetry.now_ns();
  telemetry.end_span(TracePhase::kPublish, t0, 5, 11, span_ns);
  telemetry.end_span(TracePhase::kDrainBatch, t0, core::kDefaultModelId, 4);
  const std::vector<TraceRecord> records = telemetry.tracer().collect();
  ASSERT_EQ(records.size(), 3u);

  const TraceEvent& instant = records[0].event;
  EXPECT_EQ(instant.phase, TracePhase::kDequeue);
  EXPECT_EQ(instant.ts_ns, 42u);
  EXPECT_EQ(instant.ticket, 7u);
  EXPECT_EQ(instant.model, 3u);
  EXPECT_EQ(instant.a, 0u);
  EXPECT_EQ(instant.b, 99u);

  // A span starts at t0, carries its duration in `a`, never a ticket, and
  // records that same duration into the histogram it was given.
  const TraceEvent& publish = records[1].event;
  EXPECT_EQ(publish.phase, TracePhase::kPublish);
  EXPECT_EQ(publish.ts_ns, t0);
  EXPECT_EQ(publish.ticket, 0u);
  EXPECT_EQ(publish.model, 5u);
  EXPECT_EQ(publish.b, 11u);
  const HistogramSnapshot recorded = span_ns->snapshot();
  ASSERT_EQ(recorded.count, 1u);
  EXPECT_EQ(recorded.sum, static_cast<double>(publish.a));

  const TraceEvent& drain = records[2].event;
  EXPECT_EQ(drain.phase, TracePhase::kDrainBatch);
  EXPECT_EQ(drain.ts_ns, t0);
  EXPECT_GE(drain.a, publish.a);  // closed later, same start
  EXPECT_EQ(drain.b, 4u);
  EXPECT_EQ(span_ns->snapshot().count, 1u);  // no histogram given
}

}  // namespace
}  // namespace fleet::telemetry

namespace fleet::runtime {
namespace {

using test::pretrained_iprof;

struct TelemetryEnv {
  explicit TelemetryEnv(RuntimeConfig runtime = {}) {
    model = nn::zoo::mlp(8, 4, 3);
    model->init(7);
    core::ServerConfig config;
    config.learning_rate = 0.1f;
    server = std::make_unique<ConcurrentFleetServer>(*model, pretrained_iprof(),
                                                     config, runtime);
  }

  GradientJob unit_job(std::size_t task_version) const {
    GradientJob job;
    job.task_version = task_version;
    job.gradient.assign(model->parameter_count(), 0.01f);
    job.label_dist = stats::LabelDistribution(model->n_classes());
    job.label_dist.add(0);
    job.mini_batch = 4;
    return job;
  }

  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<ConcurrentFleetServer> server;
};

std::map<telemetry::TracePhase, std::size_t> phase_counts(
    const std::vector<telemetry::TraceRecord>& records) {
  std::map<telemetry::TracePhase, std::size_t> counts;
  for (const auto& record : records) ++counts[record.event.phase];
  return counts;
}

TEST(RuntimeTelemetryTest, DisabledTelemetryKeepsStatsAndExposesNoSubstrate) {
  TelemetryEnv env;  // RuntimeConfig::telemetry.enabled defaults to false
  EXPECT_EQ(env.server->telemetry(), nullptr);
  GradientJob job = env.unit_job(0);
  ASSERT_TRUE(env.server->try_submit(job).accepted);
  env.server->drain();
  const RuntimeStats stats = env.server->stats();
  EXPECT_EQ(stats.processed, 1u);
  // The RuntimeStats histograms are maintained even without telemetry;
  // only the host-wide queue-wait histogram needs the substrate.
  EXPECT_EQ(stats.staleness_hist.count, 1u);
  EXPECT_EQ(stats.weight_hist.count, 1u);
  EXPECT_EQ(stats.queue_wait.count, 0u);
  env.server->stop();
}

TEST(RuntimeTelemetryTest, LifecycleEventsCoverEveryProcessedGradient) {
  RuntimeConfig runtime;
  runtime.telemetry.enabled = true;
  TelemetryEnv env(runtime);
  constexpr std::size_t kJobs = 16;
  for (std::size_t i = 0; i < kJobs; ++i) {
    GradientJob job = env.unit_job(env.server->version());
    ASSERT_TRUE(env.server->try_submit(job).accepted);
    env.server->drain();
  }
  env.server->stop();

  ASSERT_NE(env.server->telemetry(), nullptr);
  const auto records = env.server->telemetry()->tracer().collect();
  const auto counts = phase_counts(records);
  // Every processed gradient leaves exactly one submit, dequeue and fold.
  EXPECT_EQ(counts.at(telemetry::TracePhase::kSubmit), kJobs);
  EXPECT_EQ(counts.at(telemetry::TracePhase::kDequeue), kJobs);
  EXPECT_EQ(counts.at(telemetry::TracePhase::kFold), kJobs);
  // Drain-separated submits each publish once.
  EXPECT_EQ(counts.at(telemetry::TracePhase::kPublish), kJobs);
  EXPECT_GE(counts.at(telemetry::TracePhase::kDrainBatch), 1u);
  EXPECT_EQ(env.server->telemetry()->tracer().dropped(), 0u);

  // Tickets pair up across submit/dequeue/fold: the same admission ticket
  // keys the whole lifecycle.
  std::set<std::uint64_t> submit_tickets, dequeue_tickets, fold_tickets;
  for (const auto& record : records) {
    switch (record.event.phase) {
      case telemetry::TracePhase::kSubmit:
        submit_tickets.insert(record.event.ticket);
        break;
      case telemetry::TracePhase::kDequeue:
        dequeue_tickets.insert(record.event.ticket);
        break;
      case telemetry::TracePhase::kFold:
        fold_tickets.insert(record.event.ticket);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(submit_tickets, dequeue_tickets);
  EXPECT_EQ(submit_tickets, fold_tickets);
  EXPECT_EQ(submit_tickets.size(), kJobs);

  // The metrics side saw the same traffic.
  const auto snapshot = env.server->telemetry()->metrics().snapshot();
  const auto* wait = snapshot.histogram("queue.wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, kJobs);
  const auto* admit = snapshot.histogram("queue.admit_ns");
  ASSERT_NE(admit, nullptr);
  EXPECT_EQ(admit->count, kJobs);
  const auto* staleness = snapshot.histogram("session.0.staleness");
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->count, kJobs);
  // The registry histograms ARE the session's stats histograms: one
  // record per gradient, read through two views.
  const auto* weight = snapshot.histogram("session.0.weight");
  ASSERT_NE(weight, nullptr);
  const auto expect_same = [](const telemetry::HistogramSnapshot& exported,
                              const telemetry::HistogramSnapshot& reported) {
    EXPECT_EQ(exported.counts, reported.counts);
    EXPECT_EQ(exported.sum, reported.sum);
    EXPECT_EQ(exported.min, reported.min);
    EXPECT_EQ(exported.max, reported.max);
  };
  const RuntimeStats stats = env.server->stats();
  expect_same(*staleness, stats.staleness_hist);
  expect_same(*weight, stats.weight_hist);
}

TEST(RuntimeTelemetryTest, ShardedPathEmitsSessionFoldAndPoolTaskSpans) {
  RuntimeConfig runtime;
  runtime.telemetry.enabled = true;
  runtime.aggregation_shards = 2;
  TelemetryEnv env(runtime);
  constexpr std::size_t kJobs = 8;
  for (std::size_t i = 0; i < kJobs; ++i) {
    GradientJob job = env.unit_job(env.server->version());
    ASSERT_TRUE(env.server->try_submit(job).accepted);
    env.server->drain();
  }
  env.server->stop();

  const auto records = env.server->telemetry()->tracer().collect();
  const auto counts = phase_counts(records);
  EXPECT_EQ(counts.at(telemetry::TracePhase::kFold), kJobs);
  // One session-fold span per non-empty plan (here: one per drain batch),
  // and at least one pool task per span.
  ASSERT_GT(counts.at(telemetry::TracePhase::kSessionFold), 0u);
  EXPECT_GE(counts.at(telemetry::TracePhase::kFoldTask),
            counts.at(telemetry::TracePhase::kSessionFold));
  // Span events carry durations; fold-task lanes are pool threads.
  for (const auto& record : records) {
    if (telemetry::is_span(record.event.phase)) {
      EXPECT_GT(record.event.a, 0u);
    }
  }
  const auto snapshot = env.server->telemetry()->metrics().snapshot();
  const auto* task_ns = snapshot.histogram("pool.task_ns");
  ASSERT_NE(task_ns, nullptr);
  EXPECT_EQ(task_ns->count, counts.at(telemetry::TracePhase::kFoldTask));
}

TEST(RuntimeTelemetryTest, RejectsAndQueueWaitSurfaceInStats) {
  RuntimeConfig runtime;
  runtime.telemetry.enabled = true;
  runtime.queue_capacity = 2;
  runtime.queue_shards = 1;
  runtime.start_paused = true;
  TelemetryEnv env(runtime);
  GradientJob a = env.unit_job(0);
  GradientJob b = env.unit_job(0);
  GradientJob c = env.unit_job(0);
  ASSERT_TRUE(env.server->try_submit(a).accepted);
  ASSERT_TRUE(env.server->try_submit(b).accepted);
  ASSERT_FALSE(env.server->try_submit(c).accepted);
  env.server->resume();
  env.server->drain();
  env.server->stop();

  const RuntimeStats stats = env.server->stats();
  EXPECT_EQ(stats.queue_wait.count, 2u);  // the two drained jobs
  EXPECT_GT(stats.queue_wait.sum, 0.0);   // they waited while paused

  const auto records = env.server->telemetry()->tracer().collect();
  const auto counts = phase_counts(records);
  EXPECT_EQ(counts.at(telemetry::TracePhase::kReject), 1u);
  // The dequeue events carry the queue wait in payload b.
  for (const auto& record : records) {
    if (record.event.phase == telemetry::TracePhase::kDequeue) {
      EXPECT_GT(record.event.b, 0u);
    }
  }
}

TEST(RuntimeTelemetryTest, StatsSnapshotIsOneConsistentCut) {
  // stats() must never show a counter ahead of its histograms. Poll
  // stats() while the planner folds a backlog and assert the cut
  // invariants on every poll — with session-owned histograms (telemetry
  // off) and with registry-owned ones (telemetry on).
  for (const bool telemetry_on : {false, true}) {
    RuntimeConfig runtime;
    runtime.queue_capacity = 512;
    runtime.telemetry.enabled = telemetry_on;
    TelemetryEnv env(runtime);
    std::atomic<bool> stop{false};
    std::thread poller([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const RuntimeStats stats = env.server->stats();
        EXPECT_EQ(stats.staleness_hist.count, stats.processed);
        EXPECT_EQ(stats.weight_hist.count, stats.processed);
      }
    });
    constexpr std::size_t kJobs = 300;
    std::size_t submitted = 0;
    for (std::size_t i = 0; i < kJobs; ++i) {
      GradientJob job = env.unit_job(env.server->version());
      if (env.server->try_submit(job).accepted) ++submitted;
    }
    env.server->drain();
    stop.store(true, std::memory_order_release);
    poller.join();
    const RuntimeStats final_stats = env.server->stats();
    EXPECT_EQ(final_stats.processed, submitted) << telemetry_on;
    EXPECT_EQ(final_stats.staleness_hist.count, submitted) << telemetry_on;
    env.server->stop();
  }
}

}  // namespace
}  // namespace fleet::runtime
