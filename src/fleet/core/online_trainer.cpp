#include "fleet/core/online_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fleet/core/controller.hpp"
#include "fleet/core/model_store.hpp"
#include "fleet/tensor/ops.hpp"

namespace fleet::core {

ControlledRunResult run_controlled(nn::TrainableModel& model,
                                   const data::Dataset& train,
                                   const data::Partition& users,
                                   const data::Dataset& test,
                                   const ControlledRunConfig& config) {
  if (users.empty()) {
    throw std::invalid_argument("run_controlled: no users");
  }
  stats::Rng rng(config.seed);
  learning::AsyncAggregator aggregator(model.parameter_count(),
                                       model.n_classes(), config.aggregator);
  Controller controller(config.controller);
  // Snapshot ring shared with the live server path (DESIGN.md §4): the
  // imposed-staleness harness reads theta^(t - tau) from the same store.
  ModelStore history(config.history_window);
  history.publish(0, model.parameters());

  ControlledRunResult result;
  std::size_t version = 0;  // model updates applied
  std::vector<float> gradient;

  const auto evaluate = [&](std::size_t request) {
    CurvePoint point;
    point.request = request;
    point.step = version;
    point.accuracy = data::evaluate_accuracy(model, test);
    if (config.eval_class >= 0) {
      point.class_accuracy =
          data::evaluate_class_accuracy(model, test, config.eval_class);
    }
    result.curve.push_back(point);
  };

  evaluate(0);
  for (std::size_t request = 1; request <= config.steps; ++request) {
    // Pick a user and a mini-batch size.
    const auto user = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(users.size()) - 1));
    const auto& local = users[user];
    std::size_t batch_size = config.mini_batch;
    if (config.batch_stddev > 0.0) {
      batch_size = static_cast<std::size_t>(std::max(
          1.0, std::round(rng.gaussian(config.batch_mean, config.batch_stddev))));
    }
    batch_size = std::min(batch_size, local.size());
    if (batch_size == 0) continue;

    // Draw the mini-batch up-front so similarity reflects the actual data.
    const auto picks = rng.sample_without_replacement(local.size(), batch_size);
    std::vector<std::size_t> indices(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) indices[i] = local[picks[i]];
    const nn::Batch batch = train.make_batch(indices);
    auto label_dist = stats::LabelDistribution::from_labels(
        batch.labels, train.n_classes());
    if (config.label_privacy.epsilon > 0.0) {
      // The worker only ever releases a privatized label histogram.
      label_dist = privacy::privatize_label_distribution(
          label_dist, config.label_privacy, rng);
    }

    // Controller admission (Fig 15): size and similarity thresholds.
    const double similarity = aggregator.similarity().similarity(label_dist);
    if (!controller.admit(batch_size, similarity).admitted) {
      ++result.tasks_rejected;
      if (request % config.eval_every == 0) evaluate(request);
      continue;
    }

    // Impose staleness: gradient is computed against theta^(version - tau).
    double staleness = 0.0;
    if (config.staleness != nullptr) {
      staleness = std::max(0.0, std::round(config.staleness->sample(rng)));
    }
    if (config.longtail_class >= 0) {
      // §3.2 "similarity-based boosting" setup: *all* gradients computed on
      // data containing the long-tail class are stragglers.
      const bool carries_class =
          std::find(batch.labels.begin(), batch.labels.end(),
                    config.longtail_class) != batch.labels.end();
      if (carries_class) {
        // A straggler result delayed by tau updates cannot arrive before
        // the model has advanced tau steps; until then the task is simply
        // still in flight.
        if (static_cast<double>(version) < config.longtail_staleness) {
          if (request % config.eval_every == 0) evaluate(request);
          continue;
        }
        staleness = config.longtail_staleness;
      }
    }
    staleness = std::min(staleness, static_cast<double>(version));
    staleness =
        std::min(staleness, static_cast<double>(config.history_window - 1));

    const auto stale_version = version - static_cast<std::size_t>(staleness);
    // Hold the current snapshot across the stale-gradient computation: the
    // handles keep both buffers alive even if the ring advances.
    const ModelStore::Snapshot current = history.resolve(version);
    const ModelStore::Snapshot stale = history.resolve(stale_version);
    model.load_parameters(*stale);
    model.gradient(batch, gradient);
    model.load_parameters(*current);
    ++result.tasks_executed;

    if (config.dp.clip_norm > 0.0) {
      privacy::privatize_gradient(gradient, config.dp, batch_size, rng);
    }

    learning::WorkerUpdate update;
    update.gradient = gradient;
    update.staleness = staleness;
    update.label_dist = label_dist;
    update.mini_batch = batch_size;
    const learning::SubmitResult submitted = aggregator.submit(update);
    result.weights.push_back(submitted.weight);
    if (submitted.aggregate) {
      model.apply_gradient(*submitted.aggregate, config.learning_rate);
      ++version;
      history.publish(version, model.parameters());
    }

    if (request % config.eval_every == 0) evaluate(request);
  }
  if (result.curve.empty() || result.curve.back().request != config.steps) {
    evaluate(config.steps);
  }
  result.final_accuracy = result.curve.back().accuracy;
  return result;
}

std::vector<CurvePoint> run_synchronous_mix(
    nn::TrainableModel& model, const data::Dataset& train,
    const data::Dataset& test, const SynchronousMixConfig& config) {
  if (config.worker_batch_sizes.empty()) {
    throw std::invalid_argument("run_synchronous_mix: no workers");
  }
  stats::Rng rng(config.seed);
  std::vector<CurvePoint> curve;
  std::vector<float> gradient;
  std::vector<float> sum(model.parameter_count(), 0.0f);

  const auto evaluate = [&](std::size_t step) {
    CurvePoint point;
    point.request = step;
    point.step = step;
    point.accuracy = data::evaluate_accuracy(model, test);
    curve.push_back(point);
  };

  evaluate(0);
  const float inv_workers =
      1.0f / static_cast<float>(config.worker_batch_sizes.size());
  for (std::size_t step = 1; step <= config.steps; ++step) {
    std::fill(sum.begin(), sum.end(), 0.0f);
    for (const std::size_t batch_size : config.worker_batch_sizes) {
      const nn::Batch batch = train.sample_batch(batch_size, rng);
      model.gradient(batch, gradient);
      tensor::axpy(1.0f, gradient, std::span<float>(sum));
    }
    tensor::scale(std::span<float>(sum), inv_workers);
    model.apply_gradient(sum, config.learning_rate);
    if (step % config.eval_every == 0 || step == config.steps) evaluate(step);
  }
  return curve;
}

}  // namespace fleet::core
