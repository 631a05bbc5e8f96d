// Serving benchmark. Usage:
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   servebench --list-metrics
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run (host telemetry on, every
// generator call timed from outside, stage replay afterwards). The last
// line of standard output is the result object; progress and the
// correctness report go to standard error. Exit code 1 when a correctness
// check fails or the run cannot complete.
#include <malloc.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "keepalive.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "run.hpp"
#include "stats.hpp"

namespace {

using namespace servebench;

/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool list_metrics = false;
};

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args->list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return args->list_metrics ||
         (!args->workload.empty() && args->seconds > 0.0 &&
          (args->trace == 0 || args->trace == 1));
}

struct Outcome {
  std::vector<std::string> failures;
  unsigned long long attempted = 0;
  unsigned long long failed = 0;
};

Outcome outcome_of(Bench& bench) {
  Outcome o;
  o.failures = bench.check();
  const PhaseSamples& s = bench.samples();
  o.attempted = s.requests + s.uploads_attempted;
  o.failed = s.uploads_unsent + s.lost;
  std::cerr << "[servebench] " << bench.spec().name << ": " << o.attempted
            << " ops attempted, " << o.failed << " not served, "
            << bench.bitwise_checked() << "/" << bench.spec().tenants
            << " sessions bitwise-checked against the sequential reference, "
            << bench.bitwise_prefix_checked()
            << " more up to their first lost frame\n";
  for (const auto& f : o.failures) std::cerr << "[servebench] CHECK FAILED: " << f << "\n";
  return o;
}

/// Runs both timed phases on a freshly set-up host.
std::unique_ptr<Bench> measure(const WorkloadSpec& spec, const Args& args,
                               bool traced, std::size_t setups,
                               double* setup_s, double* grads_per_s) {
  std::vector<double> setup_times;
  std::unique_ptr<Bench> bench;
  for (std::size_t i = 0; i < setups; ++i) {
    bench.reset();
    // Each set-up starts from a trimmed heap, so the memory the previous
    // host freed does not count towards this one's peak.
    malloc_trim(0);
    bench = std::make_unique<Bench>(spec, args.seed, args.seconds, traced);
    setup_times.push_back(bench->setup());
    std::cerr << "[servebench] set-up " << i + 1 << ": " << setup_times.back()
              << " s\n";
  }
  *setup_s = quantile(setup_times, 0.5);
  bench->open_loop();
  *grads_per_s = bench->saturation();
  bench->finish();
  return bench;
}

void end_to_end(const WorkloadSpec& spec, const Args& args, Results* r,
                Outcome* o) {
  double setup_s = 0.0;
  double rate = 0.0;
  auto bench = measure(spec, args, false, kSetups, &setup_s, &rate);
  // Before the checks, whose reference replay is not the host's memory.
  const double rss_mib = rss_peak_mib();
  *o = outcome_of(*bench);
  r->set("setup_s", setup_s);
  r->set("max_grads_per_s", rate);
  r->set("upload_p50_ms", bench->upload_latency_ms(0.5));
  r->set("request_p50_us", bench->request_latency_us(0.5));
  r->set("served_frac", 1.0 - static_cast<double>(o->failed) /
                                  static_cast<double>(o->attempted));
  r->set("rss_peak_mb", rss_mib);
}

double hist_quantile(const fleet::telemetry::MetricsSnapshot& m,
                     const char* name, double q) {
  const auto* h = m.histogram(name);
  return h == nullptr || h->count == 0 ? 0.0 : h->quantile(q);
}

double hist_mean(const fleet::telemetry::MetricsSnapshot& m, const char* name) {
  const auto* h = m.histogram(name);
  return h == nullptr ? 0.0 : h->mean();
}

void per_layer(const WorkloadSpec& spec, const Args& args, Results* r,
               Outcome* o) {
  double setup_s = 0.0;
  double untraced_rate = 0.0;
  {
    // Same seed, same set-up, tracing off: the base of trace.overhead_frac.
    auto base = measure(spec, args, false, 1, &setup_s, &untraced_rate);
    *o = outcome_of(*base);
  }
  double traced_rate = 0.0;
  auto bench = measure(spec, args, true, 1, &setup_s, &traced_rate);
  Outcome traced = outcome_of(*bench);
  o->failures.insert(o->failures.end(), traced.failures.begin(),
                     traced.failures.end());
  o->attempted = traced.attempted;
  o->failed = traced.failed;

  auto& server = bench->server();
  const auto metrics = server.telemetry()->metrics().snapshot();
  const auto host = server.host_stats();
  const auto health = server.health();
  const auto& ingest = bench->final_ingest();
  const auto& samples = bench->samples();
  const ReplayTimes replay =
      stage_replay(spec, args.seed, bench->pool(0), bench->records()[0]);

  fleet::telemetry::HistogramSnapshot staleness;
  fleet::telemetry::HistogramSnapshot weight;
  double processed = 0.0;
  double publishes = 0.0;
  double admitted = 0.0;
  double refused = 0.0;
  for (const auto id : server.model_ids()) {
    const auto stats = server.stats(id);
    staleness.merge(stats.staleness_hist);
    weight.merge(stats.weight_hist);
    processed += static_cast<double>(stats.processed);
    const auto session = server.session(id);
    // The store's first publish is version 0, made at registration.
    publishes += static_cast<double>(session->store().publishes() - 1);
    admitted += static_cast<double>(session->controller().admitted_count());
    refused += static_cast<double>(session->controller().rejected_count());
  }
  const double frames = static_cast<double>(ingest.frames_sent);
  const double per_grad = publishes / processed;

  r->set("upload_p90_ms", bench->upload_latency_ms(0.9));
  r->set("upload_p99_ms", bench->upload_latency_ms(0.99));
  r->set("request_p90_us", bench->request_latency_us(0.9));
  r->set("request_p99_us", bench->request_latency_us(0.99));
  r->set("net.send_ns_p50", quantile(samples.send_ns, 0.5));
  r->set("net.send_ns_p99", quantile(samples.send_ns, 0.99));
  r->set("net.ring_rejects_per_frame", static_cast<double>(ingest.ring_rejects) / frames);
  r->set("net.ring_max_bytes", static_cast<double>(ingest.ring_max_bytes_seen));
  r->set("net.backpressure_retries_per_frame",
         static_cast<double>(ingest.backpressure_retries) / frames);
  r->set("net.server_rejects", static_cast<double>(ingest.server_rejects));
  r->set("net.wire_rejects", static_cast<double>(ingest.wire_rejects));
  r->set("net.decode_ns_per_frame", replay.decode_ns);
  r->set("net.decode_mb_per_s", replay.decode_mb_per_s);
  r->set("queue.admit_ns_p99", hist_quantile(metrics, "queue.admit_ns", 0.99));
  r->set("queue.wait_ns_p50", hist_quantile(metrics, "queue.wait_ns", 0.5));
  r->set("queue.wait_ns_p99", hist_quantile(metrics, "queue.wait_ns", 0.99));
  r->set("queue.depth_max", static_cast<double>(host.queue_max_depth_seen));
  r->set("queue.backpressure_rejects", static_cast<double>(host.backpressure_rejects));
  r->set("queue.shed_drops", static_cast<double>(host.shed_drops));
  r->set("planner.drain_batch_mean", hist_mean(metrics, "server.drain_batch"));
  r->set("planner.occupancy_pct_mean", hist_mean(metrics, "planner.occupancy_pct"));
  r->set("planner.progress_min",
         static_cast<double>(*std::min_element(health.planner_progress.begin(),
                                               health.planner_progress.end())));
  r->set("plan.ns_per_grad_warm", replay.plan_warm_ns);
  r->set("plan.ns_per_grad_full", replay.plan_full_ns);
  r->set("plan.full_over_warm", replay.plan_full_ns / replay.plan_warm_ns);
  r->set("fold.ns_per_grad", replay.fold_ns);
  r->set("fold.tasks_executed", static_cast<double>(host.fold_tasks_executed));
  r->set("fold.peak_pending", static_cast<double>(host.fold_peak_pending));
  r->set("fold.buffer_growths", static_cast<double>(host.fold_buffer_growths));
  r->set("fold.scratch_bytes_peak", static_cast<double>(host.scratch_bytes_peak));
  r->set("publish.ns_p50", hist_quantile(metrics, "server.publish_ns", 0.5));
  r->set("publish.ns_p99", hist_quantile(metrics, "server.publish_ns", 0.99));
  r->set("publish.per_grad", per_grad);
  r->set("publish.ns_per_grad", replay.publish_ns * per_grad);
  r->set("snapshot.current_ns_p99", quantile(samples.current_ns, 0.99));
  r->set("controller.admit_ns_warm", replay.admit_warm_ns);
  r->set("controller.admit_ns_full", replay.admit_full_ns);
  r->set("controller.refused_frac", refused / (admitted + refused));
  r->set("profiler.predict_ns", replay.predict_ns);
  r->set("session.staleness_p50", staleness.quantile(0.5));
  r->set("session.staleness_p99", staleness.quantile(0.99));
  r->set("session.weight_p50", weight.quantile(0.5));
  const double requests_per_upload =
      static_cast<double>(samples.requests) /
      static_cast<double>(samples.uploads_attempted);
  const double request_path =
      (replay.predict_ns + replay.similarity_ns + replay.admit_full_ns) *
      requests_per_upload;
  const double upload_path = replay.decode_ns + replay.plan_full_ns +
                             replay.fold_ns + replay.publish_ns * per_grad;
  r->set("path.request_ns_per_upload", request_path);
  r->set("path.upload_ns_per_upload", upload_path);
  r->set("gen.lateness_p99_ms", quantile(samples.lateness_ns, 0.99) * 1e-6);
  r->set("gen.ops_attempted", static_cast<double>(o->attempted));
  r->set("failed_frac",
         static_cast<double>(o->failed) / static_cast<double>(o->attempted));
  r->set("trace.overhead_frac", (untraced_rate - traced_rate) / untraced_rate);

  std::cerr << "[servebench] self time per upload (ns): plan " << replay.plan_full_ns
            << ", controller " << replay.admit_full_ns * requests_per_upload
            << ", decode " << replay.decode_ns << ", fold " << replay.fold_ns
            << ", publish " << replay.publish_ns * per_grad
            << "; request path " << request_path << " vs upload path "
            << upload_path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  (void)now_ns();  // start the clock at process start
  Args args;
  if (!parse(argc, argv, &args)) {
    std::cerr << "usage: servebench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> | --list-metrics\n";
    return 2;
  }
  if (args.list_metrics) {
    for (const MetricDef& def : metric_table()) {
      std::cout << def.name << " " << def.unit << " "
                << (def.per_layer ? "per_layer" : "end_to_end") << "\n";
    }
    return 0;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "servebench: unknown workload " << args.workload << "\n";
    return 2;
  }
  // For the whole run: set-up and saturation hand work between threads as
  // much as the open loop does.
  const CpuKeepAlive keep_alive;
  Results results(args.trace == 1);
  Outcome outcome;
  try {
    if (args.trace == 1) {
      per_layer(*spec, args, &results, &outcome);
    } else {
      end_to_end(*spec, args, &results, &outcome);
    }
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
  std::string error;
  const std::string line = results.render(outcome.failures.empty(),
                                          outcome.attempted, outcome.failed,
                                          &error);
  if (line.empty()) {
    std::cerr << "servebench: " << error << "\n";
    return 1;
  }
  std::cout << line << std::endl;
  return outcome.failures.empty() ? 0 : 1;
}
