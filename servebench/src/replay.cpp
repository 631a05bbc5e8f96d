#include "replay.hpp"

#include <stdexcept>

#include "fleet/core/controller.hpp"
#include "fleet/core/model_store.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/learning/aggregator.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"
#include "stats.hpp"

namespace servebench {

namespace {

/// Stream positions (per session, counted in uploads for the plan path and
/// in requests for the controller) at which self time is taken: while the
/// 4096-entry windows are a quarter full, and once they are full.
constexpr std::size_t kWarmBegin = 512;
constexpr std::size_t kWarmEnd = 1536;
constexpr std::size_t kFullBegin = kWindow + 1024;
constexpr std::size_t kFullEnd = kWindow + 2048;
/// The host publishes once per drain batch, not per update; replaying a
/// publish on every update would only repeat the same copy.
constexpr std::size_t kPublishEvery = 8;

bool in(std::size_t i, std::size_t begin, std::size_t end) {
  return i >= begin && i < end;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace

ReplayTimes stage_replay(const WorkloadSpec& spec, std::uint64_t seed,
                         const FramePool& pool, const SessionRecord& record) {
  const fleet::core::ServerConfig config = server_config(spec);
  auto model = make_model(spec.model, model_seed(seed, 0));
  const std::size_t n = model->parameter_count();
  fleet::learning::AsyncAggregator aggregator(n, model->n_classes(),
                                              config.aggregator);
  fleet::core::Controller controller(config.controller);
  fleet::profiler::IProf iprof(fleet::profiler::IProf::Config{});
  iprof.pretrain(fleet::profiler::collect_profile_dataset(
      fleet::device::training_fleet(), iprof.config().slo, 20));
  fleet::core::ModelStore store(config.snapshot_window);
  fleet::net::WireDecoder decoder;
  fleet::runtime::GradientJob job;
  std::vector<std::vector<std::uint8_t>> frames = pool.frames;

  std::vector<double> decode, plan_warm, plan_full, fold, publish;
  std::vector<double> admit_warm, admit_full, predict, similarity;
  double frame_bytes = 0.0;
  std::size_t clock = 0;
  std::size_t uploads = 0;
  std::size_t requests = 0;
  for (const Event& ev : record.events) {
    if (ev.kind == Event::Kind::kRequest) {
      const Device& d = pool.devices[ev.index];
      const std::int64_t t0 = now_ns();
      const std::size_t bound = iprof.predict_batch(d.features, d.model);
      const std::int64_t t1 = now_ns();
      const double sim = aggregator.similarity_of(d.labels);
      const std::int64_t t2 = now_ns();
      controller.admit(bound, sim);
      const std::int64_t t3 = now_ns();
      predict.push_back(static_cast<double>(t1 - t0));
      similarity.push_back(static_cast<double>(t2 - t1));
      if (in(requests, kWarmBegin, kWarmEnd)) admit_warm.push_back(static_cast<double>(t3 - t2));
      if (in(requests, kFullBegin, kFullEnd)) admit_full.push_back(static_cast<double>(t3 - t2));
      ++requests;
      continue;
    }
    const AdmittedUpload& up = record.sent[ev.index];
    auto& frame = frames[up.frame];
    patch_task_version(frame, up.task_version);
    const std::int64_t t0 = now_ns();
    if (decoder.decode(frame, job) != fleet::net::WireError::kOk) {
      throw std::runtime_error("stage replay: recorded frame does not decode");
    }
    const std::int64_t t1 = now_ns();
    fleet::learning::WorkerUpdate update;
    update.gradient = job.gradient;
    // Frames lost by the host would make the replay clock lag the real
    // one; clamp rather than feed a future version.
    update.staleness = static_cast<double>(
        clock >= up.task_version ? clock - up.task_version : 0);
    update.label_dist = job.label_dist;
    update.mini_batch = job.mini_batch;
    const std::int64_t t2 = now_ns();
    const fleet::learning::PlannedSubmit planned = aggregator.plan_submit(update);
    const std::int64_t t3 = now_ns();
    aggregator.fold_into(0, n, planned.weight, job.gradient);
    if (planned.flush) {
      model->apply_gradient(aggregator.flush_span(0, n), config.learning_rate);
      ++clock;
    }
    const std::int64_t t4 = now_ns();
    if (planned.flush && clock % kPublishEvery == 0) {
      const auto view = model->parameters_view();
      const std::int64_t p0 = now_ns();
      store.publish(clock, fleet::core::ModelStore::Buffer(view.begin(), view.end()));
      publish.push_back(static_cast<double>(now_ns() - p0));
    }
    decode.push_back(static_cast<double>(t1 - t0));
    frame_bytes += static_cast<double>(frame.size());
    if (in(uploads, kWarmBegin, kWarmEnd)) plan_warm.push_back(static_cast<double>(t3 - t2));
    if (in(uploads, kFullBegin, kFullEnd)) {
      plan_full.push_back(static_cast<double>(t3 - t2));
      fold.push_back(static_cast<double>(t4 - t3));
    }
    ++uploads;
  }
  if (plan_full.empty() || admit_full.empty()) {
    throw std::runtime_error("stage replay: stream shorter than the window");
  }
  ReplayTimes times;
  times.decode_ns = median(decode);
  times.decode_mb_per_s = frame_bytes / static_cast<double>(uploads) /
                          times.decode_ns * 1e3;
  times.plan_warm_ns = median(plan_warm);
  times.plan_full_ns = median(plan_full);
  times.fold_ns = median(fold);
  times.publish_ns = median(publish);
  times.admit_warm_ns = median(admit_warm);
  times.admit_full_ns = median(admit_full);
  times.predict_ns = median(predict);
  times.similarity_ns = median(similarity);
  return times;
}

}  // namespace servebench
