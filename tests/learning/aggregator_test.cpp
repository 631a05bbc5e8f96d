#include "fleet/learning/aggregator.hpp"

#include <gtest/gtest.h>

#include <deque>

namespace fleet::learning {
namespace {

// WorkerUpdate carries a *view* of the gradient; this deque owns the
// backing storage for every update a test creates (deques never move
// their elements, so the spans stay valid for the test's lifetime).
std::deque<std::vector<float>>& gradient_storage() {
  static std::deque<std::vector<float>> storage;
  return storage;
}

WorkerUpdate make_update(std::size_t params, float value, double staleness,
                         std::size_t n_classes = 2,
                         std::vector<std::size_t> label_counts = {1, 1}) {
  WorkerUpdate u;
  u.gradient = gradient_storage().emplace_back(params, value);
  u.staleness = staleness;
  u.label_dist = stats::LabelDistribution(n_classes);
  for (std::size_t c = 0; c < label_counts.size(); ++c) {
    if (label_counts[c] > 0) {
      u.label_dist.add(static_cast<int>(c), label_counts[c]);
    }
  }
  u.mini_batch = 10;
  return u;
}

AsyncAggregator::Config config_for(Scheme scheme, std::size_t k = 1) {
  AsyncAggregator::Config cfg;
  cfg.scheme = scheme;
  cfg.aggregation_k = k;
  return cfg;
}

TEST(AggregatorTest, KOfOneEmitsImmediately) {
  AsyncAggregator agg(4, 2, config_for(Scheme::kSsgd));
  const auto out = agg.submit(make_update(4, 1.0f, 0.0));
  ASSERT_TRUE(out.aggregate.has_value());
  EXPECT_EQ(out.aggregate->size(), 4u);
  EXPECT_FLOAT_EQ((*out.aggregate)[0], 1.0f);
  EXPECT_DOUBLE_EQ(out.weight, 1.0);  // SSGD: weight 1 each
}

TEST(AggregatorTest, BuffersUntilK) {
  AsyncAggregator agg(2, 2, config_for(Scheme::kSsgd, 3));
  EXPECT_FALSE(agg.submit(make_update(2, 1.0f, 0.0)).aggregate.has_value());
  EXPECT_FALSE(agg.submit(make_update(2, 1.0f, 0.0)).aggregate.has_value());
  const auto out = agg.submit(make_update(2, 1.0f, 0.0));
  ASSERT_TRUE(out.aggregate.has_value());
  EXPECT_FLOAT_EQ((*out.aggregate)[0], 3.0f);  // SSGD sums with weight 1
}

TEST(AggregatorTest, FedAvgAveragesOverK) {
  AsyncAggregator agg(2, 2, config_for(Scheme::kFedAvg, 4));
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(agg.submit(make_update(2, 2.0f, 5.0)).aggregate.has_value());
  }
  const auto out = agg.submit(make_update(2, 2.0f, 5.0));
  ASSERT_TRUE(out.aggregate.has_value());
  // 4 gradients of 2.0, each weighted 1/4.
  EXPECT_NEAR((*out.aggregate)[0], 2.0f, 1e-6);
  EXPECT_DOUBLE_EQ(out.weight, 0.25);
}

TEST(AggregatorTest, FedAvgIgnoresStaleness) {
  AsyncAggregator agg(2, 2, config_for(Scheme::kFedAvg));
  EXPECT_DOUBLE_EQ(agg.weight_for(make_update(2, 1.0f, 0.0)),
                   agg.weight_for(make_update(2, 1.0f, 100.0)));
}

TEST(AggregatorTest, DynSgdUsesInverseDampening) {
  AsyncAggregator agg(2, 2, config_for(Scheme::kDynSgd));
  EXPECT_DOUBLE_EQ(agg.weight_for(make_update(2, 1.0f, 0.0)), 1.0);
  EXPECT_DOUBLE_EQ(agg.weight_for(make_update(2, 1.0f, 4.0)), 0.2);
}

TEST(AggregatorTest, AdaSgdFallsBackToInverseDuringBootstrap) {
  // §2.3: before staleness history is representative, the dampening factor
  // of DynSGD is used.
  auto cfg = config_for(Scheme::kAdaSgd);
  cfg.similarity_boost = false;
  AsyncAggregator agg(2, 2, cfg);
  EXPECT_DOUBLE_EQ(agg.weight_for(make_update(2, 1.0f, 4.0)), 0.2);
}

TEST(AggregatorTest, AdaSgdSwitchesToExponentialAfterBootstrap) {
  auto cfg = config_for(Scheme::kAdaSgd);
  cfg.similarity_boost = false;
  AsyncAggregator agg(2, 2, cfg);
  // Feed staleness ~ constant 12 until bootstrapped.
  for (int i = 0; i < 40; ++i) agg.submit(make_update(2, 0.0f, 12.0));
  ASSERT_TRUE(agg.staleness().bootstrapped());
  const double tau_thres = agg.staleness().tau_thres();
  ExponentialDampening expected(tau_thres);
  EXPECT_NEAR(agg.weight_for(make_update(2, 1.0f, 8.0)),
              expected.factor(8.0), 1e-9);
}

TEST(AggregatorTest, SimilarityBoostRaisesNovelGradientWeight) {
  auto cfg = config_for(Scheme::kAdaSgd);
  cfg.similarity_boost = true;
  AsyncAggregator agg(2, 4, cfg);
  // Saturate history with classes {0,1} and bootstrap staleness.
  for (int i = 0; i < 40; ++i) {
    agg.submit(make_update(2, 0.0f, 6.0, 4, {5, 5, 0, 0}));
  }
  const double stale = 30.0;
  // Familiar data: heavily dampened.
  const double familiar =
      agg.weight_for(make_update(2, 1.0f, stale, 4, {5, 5, 0, 0}));
  // Novel data (unseen classes): boosted despite the staleness — up to
  // the tau_thres/2 anchor, since a straggler is never restored to full
  // weight (see AsyncAggregator::weight_for).
  const double novel =
      agg.weight_for(make_update(2, 1.0f, stale, 4, {0, 0, 5, 5}));
  EXPECT_GT(novel, familiar * 5.0);
  const double cap =
      ExponentialDampening(agg.tau_thres()).factor(agg.tau_thres() / 2.0);
  EXPECT_DOUBLE_EQ(novel, cap);
}

TEST(AggregatorTest, NonStragglerNovelGradientBoostsToFullWeight) {
  auto cfg = config_for(Scheme::kAdaSgd);
  cfg.similarity_boost = true;
  cfg.fixed_tau_thres = 24.0;
  AsyncAggregator agg(2, 4, cfg);
  for (int i = 0; i < 10; ++i) {
    agg.submit(make_update(2, 0.0f, 4.0, 4, {5, 5, 0, 0}));
  }
  // Fresh-ish (tau <= tau_thres) novel gradient: min(1, Lambda/0) = 1.
  EXPECT_DOUBLE_EQ(
      agg.weight_for(make_update(2, 1.0f, 4.0, 4, {0, 0, 5, 5})), 1.0);
}

TEST(AggregatorTest, FlushEmitsPartialWindow) {
  // Time-window aggregation (§2.3): the timer flushes whatever arrived.
  AsyncAggregator agg(2, 2, config_for(Scheme::kSsgd, 10));
  EXPECT_FALSE(agg.flush().has_value());  // nothing buffered
  agg.submit(make_update(2, 1.0f, 0.0));
  agg.submit(make_update(2, 1.0f, 0.0));
  EXPECT_EQ(agg.pending(), 2u);
  const auto out = agg.flush();
  ASSERT_TRUE(out.has_value());
  EXPECT_FLOAT_EQ((*out)[0], 2.0f);
  EXPECT_EQ(agg.pending(), 0u);
  EXPECT_FALSE(agg.flush().has_value());  // emptied
}

TEST(AggregatorTest, WeightsAreLogged) {
  // Each submission reports the weight it applied; callers log it
  // themselves (OnlineTrainer's Fig 9b trace).
  AsyncAggregator agg(2, 2, config_for(Scheme::kDynSgd));
  EXPECT_DOUBLE_EQ(agg.submit(make_update(2, 1.0f, 0.0)).weight, 1.0);
  EXPECT_DOUBLE_EQ(agg.submit(make_update(2, 1.0f, 1.0)).weight, 0.5);
}

TEST(AggregatorTest, PlanSubmitMirrorsSubmitBookkeeping) {
  // plan_submit + fold_into + flush_span must be indistinguishable from
  // submit(): same weights, same round boundaries, and a bitwise-identical
  // aggregate.
  auto cfg = config_for(Scheme::kAdaSgd, /*k=*/2);
  AsyncAggregator sequential(3, 2, cfg);
  AsyncAggregator planned(3, 2, cfg);

  for (int i = 0; i < 6; ++i) {
    const auto update =
        make_update(3, 0.5f + 0.25f * static_cast<float>(i % 3),
                    static_cast<double>(i % 4));
    const auto result = sequential.submit(update);
    const auto plan = planned.plan_submit(update);
    EXPECT_DOUBLE_EQ(plan.weight, result.weight) << "submission " << i;
    EXPECT_EQ(plan.flush, result.aggregate.has_value()) << "submission " << i;
    // Execute the deferred arithmetic over two spans ({0,1} and {2}).
    planned.fold_into(0, 2, plan.weight, update.gradient);
    planned.fold_into(2, 3, plan.weight, update.gradient);
    if (plan.flush) {
      const auto lo = planned.flush_span(0, 2);
      const auto hi = planned.flush_span(2, 3);
      ASSERT_TRUE(result.aggregate.has_value());
      EXPECT_EQ((*result.aggregate)[0], lo[0]);
      EXPECT_EQ((*result.aggregate)[1], lo[1]);
      EXPECT_EQ((*result.aggregate)[2], hi[0]);
    }
  }
  EXPECT_EQ(planned.pending(), sequential.pending());
}

TEST(AggregatorTest, FoldIntoAndFlushSpanValidateRanges) {
  AsyncAggregator agg(4, 2, config_for(Scheme::kSsgd));
  const auto update = make_update(4, 1.0f, 0.0);
  EXPECT_THROW(agg.fold_into(2, 1, 1.0, update.gradient),
               std::invalid_argument);
  EXPECT_THROW(agg.fold_into(0, 5, 1.0, update.gradient),
               std::invalid_argument);
  EXPECT_THROW(agg.fold_into(0, 2, 1.0, std::vector<float>(3, 0.0f)),
               std::invalid_argument);
  EXPECT_THROW(agg.flush_span(3, 2), std::invalid_argument);
  EXPECT_THROW(agg.flush_span(0, 5), std::invalid_argument);
}

TEST(AggregatorTest, WeightNeverExceedsOne) {
  auto cfg = config_for(Scheme::kAdaSgd);
  AsyncAggregator agg(2, 2, cfg);
  for (int i = 0; i < 100; ++i) {
    const auto u = make_update(2, 1.0f, static_cast<double>(i % 20));
    EXPECT_LE(agg.weight_for(u), 1.0);
    EXPECT_GT(agg.weight_for(u), 0.0);
    agg.submit(u);
  }
}

TEST(AggregatorTest, FixedTauThresOverridesPercentile) {
  auto cfg = config_for(Scheme::kAdaSgd);
  cfg.similarity_boost = false;
  cfg.fixed_tau_thres = 12.0;
  AsyncAggregator agg(2, 2, cfg);
  // Even with zero history the dampening must already be the exponential
  // anchored at tau_thres = 12 (no bootstrap fallback when pinned).
  ExponentialDampening expected(12.0);
  EXPECT_NEAR(agg.weight_for(make_update(2, 1.0f, 8.0)), expected.factor(8.0),
              1e-12);
  EXPECT_DOUBLE_EQ(agg.tau_thres(), 12.0);
  // Feeding large staleness values must not move the pinned threshold.
  for (int i = 0; i < 100; ++i) agg.submit(make_update(2, 0.0f, 48.0));
  EXPECT_DOUBLE_EQ(agg.tau_thres(), 12.0);
}

TEST(AggregatorTest, StragglersDoNotEnterGlobalLabelDistribution) {
  auto cfg = config_for(Scheme::kAdaSgd);
  cfg.fixed_tau_thres = 10.0;
  AsyncAggregator agg(2, 4, cfg);
  // Fresh gradients of classes {0,1} populate LD_global...
  for (int i = 0; i < 20; ++i) {
    agg.submit(make_update(2, 0.0f, 2.0, 4, {5, 5, 0, 0}));
  }
  // ...straggler gradients of class 3 (tau > tau_thres) must not.
  for (int i = 0; i < 20; ++i) {
    agg.submit(make_update(2, 0.0f, 30.0, 4, {0, 0, 0, 10}));
  }
  EXPECT_DOUBLE_EQ(agg.similarity().global_probability(3), 0.0);
  // Hence class-3 tasks stay boosted (to the straggler cap) despite
  // tau = 30 — orders of magnitude above the raw Lambda(30).
  const double w =
      agg.weight_for(make_update(2, 1.0f, 30.0, 4, {0, 0, 0, 10}));
  EXPECT_GT(w, 0.1);
  EXPECT_GT(w, ExponentialDampening(10.0).factor(30.0) * 100.0);
}

TEST(AggregatorTest, SubmitReportsTheAppliedWeight) {
  // The receipt path reads the weight off the submit result — assert it is
  // exactly what the pure query would have computed (one computation, two
  // consumers).
  AsyncAggregator agg(2, 2, config_for(Scheme::kDynSgd, 100));
  for (double tau : {0.0, 1.0, 4.0, 9.0}) {
    const auto u = make_update(2, 1.0f, tau);
    const double expected = agg.weight_for(u);
    EXPECT_DOUBLE_EQ(agg.submit(u).weight, expected);
  }
}

TEST(AggregatorTest, TimeWindowDeploymentAggregatesAcrossFlushes) {
  // §2.3 time-window mode: K is effectively infinite and a timer calls
  // flush(). Consecutive windows must be independent sums.
  AsyncAggregator agg(2, 2, config_for(Scheme::kSsgd, 1000));
  for (int i = 0; i < 3; ++i) agg.submit(make_update(2, 1.0f, 0.0));
  const auto first = agg.flush();
  ASSERT_TRUE(first.has_value());
  EXPECT_FLOAT_EQ((*first)[0], 3.0f);

  for (int i = 0; i < 2; ++i) agg.submit(make_update(2, 2.0f, 0.0));
  const auto second = agg.flush();
  ASSERT_TRUE(second.has_value());
  EXPECT_FLOAT_EQ((*second)[0], 4.0f);  // not 3 + 4: windows are disjoint
  EXPECT_EQ(agg.pending(), 0u);
}

TEST(AggregatorTest, FlushedViewStaysValidUntilNextFlush) {
  // The zero-copy contract of the double buffer: the span a flush returns
  // must survive subsequent submits (which write the *other* buffer).
  AsyncAggregator agg(2, 2, config_for(Scheme::kSsgd, 10));
  agg.submit(make_update(2, 5.0f, 0.0));
  const auto out = agg.flush();
  ASSERT_TRUE(out.has_value());
  agg.submit(make_update(2, 7.0f, 0.0));  // accumulates into the spare
  EXPECT_FLOAT_EQ((*out)[0], 5.0f);       // flushed view untouched
}

TEST(AggregatorTest, RejectsBadInput) {
  EXPECT_THROW(AsyncAggregator(0, 2, config_for(Scheme::kSsgd)),
               std::invalid_argument);
  EXPECT_THROW(AsyncAggregator(2, 2, config_for(Scheme::kSsgd, 0)),
               std::invalid_argument);
  AsyncAggregator agg(4, 2, config_for(Scheme::kSsgd));
  EXPECT_THROW(agg.submit(make_update(2, 1.0f, 0.0)), std::invalid_argument);
}

}  // namespace
}  // namespace fleet::learning
