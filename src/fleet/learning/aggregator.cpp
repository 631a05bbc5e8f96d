#include "fleet/learning/aggregator.hpp"

#include <algorithm>
#include <stdexcept>

#include "fleet/tensor/ops.hpp"

namespace fleet::learning {

AsyncAggregator::AsyncAggregator(std::size_t parameter_count,
                                 std::size_t n_classes, const Config& config)
    : config_(config),
      parameter_count_(parameter_count),
      staleness_(config.s_percent, /*bootstrap_count=*/30,
                 config.staleness_window),
      similarity_(n_classes),
      accumulator_(parameter_count, 0.0f),
      flushed_(parameter_count, 0.0f) {
  if (parameter_count == 0) {
    throw std::invalid_argument("AsyncAggregator: zero parameters");
  }
  if (config.aggregation_k == 0) {
    throw std::invalid_argument("AsyncAggregator: K must be >= 1");
  }
}

double AsyncAggregator::tau_thres() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tau_thres_unlocked();
}

double AsyncAggregator::tau_thres_unlocked() const {
  if (config_.fixed_tau_thres > 0.0) return config_.fixed_tau_thres;
  return staleness_.tau_thres();
}

double AsyncAggregator::dampening_factor(double staleness) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dampening_factor_unlocked(staleness);
}

double AsyncAggregator::dampening_factor_unlocked(double staleness) const {
  switch (config_.scheme) {
    case Scheme::kAdaSgd: {
      // Bootstrap phase: fall back to the inverse dampening, as §2.3
      // prescribes until past staleness values are representative.
      if (config_.fixed_tau_thres <= 0.0 && !staleness_.bootstrapped()) {
        return InverseDampening().factor(staleness);
      }
      return ExponentialDampening(tau_thres_unlocked()).factor(staleness);
    }
    case Scheme::kDynSgd:
      return InverseDampening().factor(staleness);
    case Scheme::kFedAvg:
    case Scheme::kSsgd:
      return 1.0;
  }
  throw std::logic_error("AsyncAggregator: unknown scheme");
}

double AsyncAggregator::weight_for(const WorkerUpdate& update) const {
  std::lock_guard<std::mutex> lock(mu_);
  return weight_for_unlocked(update);
}

double AsyncAggregator::similarity_of(
    const stats::LabelDistribution& label_dist) const {
  std::lock_guard<std::mutex> lock(mu_);
  return similarity_.similarity(label_dist);
}

double AsyncAggregator::weight_for_unlocked(const WorkerUpdate& update) const {
  const double lambda = dampening_factor_unlocked(update.staleness);
  double weight = lambda;
  if (config_.scheme == Scheme::kAdaSgd && config_.similarity_boost) {
    const double sim = similarity_.similarity(update.label_dist);
    // min(1, Lambda / sim): novel data (small sim) boosts the weight back
    // up (§2.3).
    weight = sim <= 1e-12 ? 1.0 : std::min(1.0, lambda / sim);
    // A *straggler's* boost is capped at the tau_thres/2 anchor — the
    // weight of a median-staleness gradient (the operating point Fig 5
    // annotates at ~0.1). Novel data justifies treating a very stale
    // gradient like a typical one, but restoring it to full weight would
    // reinject exactly the staleness noise the dampening protects
    // against.
    const double thres = tau_thres_unlocked();
    if (update.staleness > thres) {
      const double cap = ExponentialDampening(thres).factor(thres / 2.0);
      weight = std::min(weight, std::max(lambda, cap));
    }
  } else if (config_.scheme == Scheme::kFedAvg) {
    // Gradient averaging across the aggregation window.
    weight = 1.0 / static_cast<double>(config_.aggregation_k);
  }
  return weight;
}

double AsyncAggregator::record_submit_unlocked(const WorkerUpdate& update) {
  const double weight = weight_for_unlocked(update);
  // Only non-straggler gradients (tau <= tau_thres, the s% the system
  // expects to arrive in time, §2.3) count toward LD_global, weighted by
  // the factor they were applied with. A straggler's data has not been
  // reliably incorporated, so its labels must stay "novel" — otherwise the
  // boost could never recover a class that lives only on stragglers
  // (Fig 9a).
  if (update.staleness <= tau_thres_unlocked()) {
    similarity_.record_used(update.label_dist, weight);
  }
  staleness_.observe(update.staleness);
  return weight;
}

SubmitResult AsyncAggregator::submit(const WorkerUpdate& update) {
  if (update.gradient.size() != parameter_count_) {
    throw std::invalid_argument("AsyncAggregator::submit: gradient size");
  }
  std::lock_guard<std::mutex> lock(mu_);
  SubmitResult result;
  result.weight = record_submit_unlocked(update);

  tensor::axpy(static_cast<float>(result.weight), update.gradient,
               std::span<float>(accumulator_));
  if (++pending_ >= config_.aggregation_k) {
    result.aggregate = flush_unlocked();
  }
  return result;
}

PlannedSubmit AsyncAggregator::plan_submit(const WorkerUpdate& update) {
  if (update.gradient.size() != parameter_count_) {
    throw std::invalid_argument("AsyncAggregator::plan_submit: gradient size");
  }
  std::lock_guard<std::mutex> lock(mu_);
  PlannedSubmit planned;
  planned.weight = record_submit_unlocked(update);
  if (++pending_ >= config_.aggregation_k) {
    // The deferred flush_span() sweep performs the arithmetic; the round
    // boundary itself is decided (and recorded) here, centrally.
    pending_ = 0;
    planned.flush = true;
  }
  return planned;
}

void AsyncAggregator::fold_into(std::size_t begin, std::size_t end,
                                double weight,
                                std::span<const float> gradient) {
  if (gradient.size() != parameter_count_) {
    throw std::invalid_argument("AsyncAggregator::fold_into: gradient size");
  }
  if (begin > end || end > parameter_count_) {
    throw std::invalid_argument("AsyncAggregator::fold_into: bad span");
  }
  // Same fused axpy (and the same double->float cast) as submit(), on a
  // slice. No lock: disjoint-span writers, coordinated by the caller.
  tensor::axpy(static_cast<float>(weight), gradient.subspan(begin, end - begin),
               std::span<float>(accumulator_).subspan(begin, end - begin));
}

std::span<const float> AsyncAggregator::flush_span(std::size_t begin,
                                                   std::size_t end) {
  if (begin > end || end > parameter_count_) {
    throw std::invalid_argument("AsyncAggregator::flush_span: bad span");
  }
  std::copy(accumulator_.begin() + static_cast<std::ptrdiff_t>(begin),
            accumulator_.begin() + static_cast<std::ptrdiff_t>(end),
            flushed_.begin() + static_cast<std::ptrdiff_t>(begin));
  std::fill(accumulator_.begin() + static_cast<std::ptrdiff_t>(begin),
            accumulator_.begin() + static_cast<std::ptrdiff_t>(end), 0.0f);
  return std::span<const float>(flushed_).subspan(begin, end - begin);
}

std::optional<std::span<const float>> AsyncAggregator::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_unlocked();
}

std::optional<std::span<const float>> AsyncAggregator::flush_unlocked() {
  if (pending_ == 0) return std::nullopt;
  accumulator_.swap(flushed_);
  std::fill(accumulator_.begin(), accumulator_.end(), 0.0f);
  pending_ = 0;
  return std::span<const float>(flushed_);
}

}  // namespace fleet::learning
