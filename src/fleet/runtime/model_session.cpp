#include "fleet/runtime/model_session.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace fleet::runtime {

ModelSession::ModelSession(core::ModelId id, nn::TrainableModel& model,
                           std::unique_ptr<profiler::Profiler> profiler,
                           const core::ServerConfig& config,
                           std::size_t fold_shards,
                           telemetry::Telemetry* telemetry)
    : id_(id),
      model_(model),
      profiler_(std::move(profiler)),
      config_(config),
      fold_spans_(ShardedAggregator::partition(model.parameter_count(),
                                               std::max<std::size_t>(
                                                   fold_shards, 1))),
      controller_(config.controller),
      aggregator_(model.parameter_count(), model.n_classes(),
                  config.aggregator),
      store_(config.snapshot_window) {
  if (profiler_ == nullptr) {
    throw std::invalid_argument("ModelSession: null profiler");
  }
  if (telemetry != nullptr) {
    const std::string base = "session." + std::to_string(id_);
    staleness_hist_ = telemetry->metrics().histogram(
        base + ".staleness", telemetry::staleness_bounds());
    weight_hist_ = telemetry->metrics().histogram(
        base + ".weight", telemetry::weight_bounds());
  } else {
    owned_staleness_ =
        std::make_unique<telemetry::Histogram>(telemetry::staleness_bounds());
    owned_weight_ =
        std::make_unique<telemetry::Histogram>(telemetry::weight_bounds());
    staleness_hist_ = owned_staleness_.get();
    weight_hist_ = owned_weight_.get();
  }
  // Materialize and publish version 0 before any thread can observe the
  // session, so handle_request never sees an empty store.
  publish_version(0);
}

void ModelSession::publish_version(std::size_t version) {
  // Aggregation thread only (plus the constructor, before the session is
  // registered): one bulk copy out of the parameter arena, then an atomic
  // handle swap that request threads pick up lock-free.
  const auto view = model_.parameters_view();
  auto snapshot = store_.publish(
      version, core::ModelStore::Buffer(view.begin(), view.end()));
  current_.store(std::make_shared<const VersionedSnapshot>(
      VersionedSnapshot{version, std::move(snapshot)}));
}

bool ModelSession::publish_if_dirty() {
  const std::size_t version = version_.load(std::memory_order_relaxed);
  if (version == published_version_) return false;
  publish_version(version);
  published_version_ = version;
  return true;
}

ModelSession::VersionedSnapshot ModelSession::current() const {
  const auto record = current_.load();
  return *record;  // copies {version, shared handle}; the buffer is shared
}

core::TaskAssignment ModelSession::handle_request(
    const profiler::DeviceFeatures& features, const std::string& device_model,
    const stats::LabelDistribution& label_info) {
  core::TaskAssignment assignment;
  assignment.model_id = id_;
  std::size_t bound = 0;
  {
    std::lock_guard<std::mutex> lock(profiler_mu_);
    bound = profiler_->predict_batch(features, device_model);
  }
  const double similarity = aggregator_.similarity_of(label_info);
  core::Controller::Decision decision;
  {
    std::lock_guard<std::mutex> lock(controller_mu_);
    decision = controller_.admit(bound, similarity);
  }
  if (!decision.admitted) {
    assignment.accepted = false;
    assignment.reject_reason = decision.reason;
    return assignment;
  }
  const VersionedSnapshot record = current();
  assignment.accepted = true;
  assignment.model_version = record.version;
  assignment.mini_batch = bound;
  assignment.snapshot = record.snapshot;
  return assignment;
}

double ModelSession::shed_cost(const GradientJob& job,
                               OverloadPolicy policy) const {
  // Estimate against the clock now; the true staleness is fixed only when
  // a planner processes the job. A job carrying a future version (a
  // producer bug the aggregation-side screen drops anyway) scores zero.
  const std::size_t now = version_.load(std::memory_order_acquire);
  const double staleness =
      job.task_version <= now
          ? static_cast<double>(now - job.task_version)
          : 0.0;
  if (policy == OverloadPolicy::kShedLowestWeight) {
    // The session's own aggregator computes the exact dampened weight it
    // would apply at this staleness — weight_for is a pure, internally
    // locked query and never reads the gradient payload.
    learning::WorkerUpdate update;
    update.staleness = staleness;
    update.label_dist = job.label_dist;
    update.mini_batch = job.mini_batch;
    return aggregator_.weight_for(update);
  }
  // kShedStalest: staleness in rounds is the unit commensurate across
  // tenants; the stalest job (most negative score) sheds first.
  return -staleness;
}

const char* ModelSession::validate(const GradientJob& job) const {
  if (job.gradient.size() != model_.parameter_count()) {
    return "gradient size mismatch";
  }
  if (job.label_dist.n_classes() != model_.n_classes()) {
    return "label distribution class count mismatch";
  }
  if (job.feedback.has_value() && job.feedback->mini_batch == 0) {
    return "profiler feedback without mini-batch";
  }
  return nullptr;
}

bool ModelSession::plan_process(GradientJob& job, std::vector<FoldOp>& plan) {
  const std::size_t now = version_.load(std::memory_order_relaxed);
  if (job.task_version > now) {
    // A job can only legitimately carry a version it observed from
    // current(), so a future version is a producer bug; drop it rather
    // than poisoning the logical clock. Dropped jobs never enter the plan.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++invalid_jobs_;
    return false;
  }
  // tau_i = t - t_i against this session's clock at *processing* time
  // (Eq. 3) — the shared queue delays the gradient, and the staleness
  // reflects that delay exactly, same as the serial server's logical
  // clock. "Processing" is planning: the clock advances as flush points
  // are planned, so later jobs in the same batch observe every update
  // earlier ones produced — exactly the sequential schedule. Other
  // sessions' jobs never touch this clock, which is why a hosted
  // session's staleness matches its solo-server run.
  const double staleness = static_cast<double>(now - job.task_version);
  learning::WorkerUpdate update;
  update.gradient = std::span<const float>(job.gradient);
  update.staleness = staleness;
  update.label_dist = job.label_dist;
  update.mini_batch = job.mini_batch;
  const learning::PlannedSubmit planned = aggregator_.plan_submit(update);

  FoldOp fold;
  fold.kind = FoldOp::Kind::kFold;
  fold.gradient = std::span<const float>(job.gradient);
  fold.weight = planned.weight;
  plan.push_back(fold);

  if (planned.flush) {
    FoldOp apply;
    apply.kind = FoldOp::Kind::kFlushApply;
    apply.learning_rate = config_.learning_rate;
    plan.push_back(apply);
    // The logical clock advances at the planned flush, before the shards
    // run the arithmetic — legal because the version only becomes
    // observable-with-parameters at publication, which waits for the
    // fold's latch, while staleness must see every planned update
    // immediately.
    version_.store(now + 1, std::memory_order_release);
  }

  if (job.feedback.has_value()) {
    std::lock_guard<std::mutex> lock(profiler_mu_);
    profiler_->observe(*job.feedback);
  }
  // One consistent cut: counters and histograms move together under
  // stats_mu_, so stats() can never observe a counter ahead of its
  // histogram.
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++processed_;
  if (planned.flush) ++model_updates_;
  staleness_hist_->record(staleness);
  weight_hist_->record(planned.weight);
  return true;
}

FoldContext ModelSession::fold_context() {
  FoldContext ctx;
  ctx.aggregator = &aggregator_;
  ctx.parameters = model_.parameters_mut();
  ctx.spans = fold_spans_;
  ctx.model = id_;
  return ctx;
}

RuntimeStats ModelSession::stats() const {
  RuntimeStats snapshot;
  // Producer-side counter first (lock-free by design; may run ahead while
  // jobs queue), then everything planner-side under stats_mu_ as one
  // consistent cut: processed always matches the histograms.
  snapshot.submitted = submitted_.load(std::memory_order_acquire);
  snapshot.degraded = degraded_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(stats_mu_);
  snapshot.processed = processed_;
  snapshot.model_updates = model_updates_;
  snapshot.invalid_jobs = invalid_jobs_;
  snapshot.staleness_hist = staleness_hist_->snapshot();
  snapshot.weight_hist = weight_hist_->snapshot();
  return snapshot;
}

}  // namespace fleet::runtime
