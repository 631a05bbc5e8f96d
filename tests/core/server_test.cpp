#include "fleet/core/server.hpp"

#include <gtest/gtest.h>

#include "fleet/device/catalog.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"

namespace fleet::core {
namespace {

std::unique_ptr<profiler::Profiler> make_profiler() {
  auto iprof = std::make_unique<profiler::IProf>(profiler::IProf::Config{});
  iprof->pretrain(profiler::collect_profile_dataset(
      device::training_fleet(), profiler::IProf::Config{}.slo, 10));
  return iprof;
}

struct ServerFixture : ::testing::Test {
  ServerFixture()
      : model(nn::zoo::mlp(4, 8, 2)) {
    model->init(1);
    ServerConfig config;
    config.aggregator.scheme = learning::Scheme::kAdaSgd;
    server = std::make_unique<FleetServer>(*model, make_profiler(), config);
    device = std::make_unique<device::DeviceSim>(
        device::spec("Galaxy S7"), 2);
  }

  stats::LabelDistribution labels_01() {
    stats::LabelDistribution ld(2);
    ld.add(0, 5);
    ld.add(1, 5);
    return ld;
  }

  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<FleetServer> server;
  std::unique_ptr<device::DeviceSim> device;
};

TEST_F(ServerFixture, HandleRequestReturnsModelAndBound) {
  const auto assignment = server->handle_request(device->features(),
                                                 "Galaxy S7", labels_01());
  ASSERT_TRUE(assignment.accepted);
  EXPECT_EQ(assignment.model_version, 0u);
  EXPECT_GE(assignment.mini_batch, 1u);
  ASSERT_NE(assignment.snapshot, nullptr);
  EXPECT_EQ(assignment.parameters().size(), model->parameter_count());
}

TEST_F(ServerFixture, ConcurrentAssignmentsShareOneSnapshotBuffer) {
  // The zero-copy contract: every assignment at the same logical clock
  // value holds the *same* immutable buffer — no per-request copies.
  const auto a1 = server->handle_request(device->features(), "Galaxy S7",
                                         labels_01());
  const auto a2 = server->handle_request(device->features(), "Galaxy S7",
                                         labels_01());
  ASSERT_TRUE(a1.accepted);
  ASSERT_TRUE(a2.accepted);
  EXPECT_EQ(a1.model_version, a2.model_version);
  ASSERT_NE(a1.snapshot, nullptr);
  EXPECT_EQ(a1.snapshot.get(), a2.snapshot.get());
  EXPECT_EQ(a1.parameters().data(), a2.parameters().data());
  // Exactly one buffer was materialized for the two requests.
  EXPECT_EQ(server->store().publishes(), 1u);
}

TEST_F(ServerFixture, SnapshotRefreshesAfterModelUpdate) {
  const auto before = server->handle_request(device->features(), "Galaxy S7",
                                             labels_01());
  std::vector<float> gradient(model->parameter_count(), 0.01f);
  server->handle_gradient(before.model_version, gradient, labels_01(), 10);
  const auto after = server->handle_request(device->features(), "Galaxy S7",
                                            labels_01());
  EXPECT_EQ(after.model_version, 1u);
  ASSERT_NE(after.snapshot, nullptr);
  EXPECT_NE(after.snapshot.get(), before.snapshot.get());
  // The stale handle still pins the old buffer (in-flight tasks keep
  // training against theta^(t_i) even after the ring moves on).
  EXPECT_EQ(before.parameters().size(), model->parameter_count());
}

TEST_F(ServerFixture, StalenessStaysExactBeyondSnapshotWindow) {
  ServerConfig config;
  config.snapshot_window = 4;
  FleetServer small(*model, make_profiler(), config);
  std::vector<float> gradient(model->parameter_count(), 0.0f);
  for (int i = 0; i < 10; ++i) {
    small.handle_gradient(small.version(), gradient, labels_01(), 10);
  }
  ASSERT_EQ(small.version(), 10u);
  // Ring eviction never distorts tau: a task from version 0 is exactly 10
  // updates stale even though its snapshot fell off the 4-deep ring, so
  // Eq. 3 dampens it with Lambda(10), not Lambda(window-1).
  const auto receipt = small.handle_gradient(0, gradient, labels_01(), 10);
  EXPECT_DOUBLE_EQ(receipt.staleness, 10.0);
}

TEST_F(ServerFixture, GradientAdvancesVersion) {
  const auto assignment = server->handle_request(device->features(),
                                                 "Galaxy S7", labels_01());
  std::vector<float> gradient(model->parameter_count(), 0.01f);
  const auto receipt = server->handle_gradient(
      assignment.model_version, gradient, labels_01(), 10);
  EXPECT_TRUE(receipt.model_updated);
  EXPECT_EQ(receipt.version, 1u);
  EXPECT_EQ(server->version(), 1u);
  EXPECT_DOUBLE_EQ(receipt.staleness, 0.0);
}

TEST_F(ServerFixture, StalenessIsVersionGap) {
  const auto a1 = server->handle_request(device->features(), "Galaxy S7",
                                         labels_01());
  // Three other gradients update the model before a1's gradient lands.
  std::vector<float> gradient(model->parameter_count(), 0.01f);
  for (int i = 0; i < 3; ++i) {
    server->handle_gradient(server->version(), gradient, labels_01(), 10);
  }
  const auto receipt =
      server->handle_gradient(a1.model_version, gradient, labels_01(), 10);
  EXPECT_DOUBLE_EQ(receipt.staleness, 3.0);
}

TEST_F(ServerFixture, GradientActuallyMovesTheModel) {
  const std::vector<float> before = model->parameters();
  std::vector<float> gradient(model->parameter_count(), 1.0f);
  server->handle_gradient(0, gradient, labels_01(), 10);
  const std::vector<float> after = model->parameters();
  double diff = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    diff += std::abs(after[i] - before[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST_F(ServerFixture, FutureVersionGradientThrows) {
  std::vector<float> gradient(model->parameter_count(), 0.01f);
  EXPECT_THROW(server->handle_gradient(99, gradient, labels_01(), 10),
               std::invalid_argument);
}

TEST_F(ServerFixture, ProfilerFeedbackIsAccepted) {
  profiler::Observation ob;
  ob.device_model = "Galaxy S7";
  ob.features = device->features();
  ob.mini_batch = 100;
  ob.time_s = 2.0;
  ob.energy_pct = 0.01;
  std::vector<float> gradient(model->parameter_count(), 0.01f);
  EXPECT_NO_THROW(
      server->handle_gradient(0, gradient, labels_01(), 100, ob));
}

TEST_F(ServerFixture, WeightsReflectStaleness) {
  const auto a = server->handle_request(device->features(), "Galaxy S7",
                                        labels_01());
  std::vector<float> gradient(model->parameter_count(), 0.01f);
  for (int i = 0; i < 5; ++i) {
    server->handle_gradient(server->version(), gradient, labels_01(), 10);
  }
  const auto stale_receipt =
      server->handle_gradient(a.model_version, gradient, labels_01(), 10);
  EXPECT_LT(stale_receipt.weight, 1.0);
}

TEST(ServerTest, NullProfilerThrows) {
  auto model = nn::zoo::mlp(4, 8, 2);
  model->init(1);
  EXPECT_THROW(FleetServer(*model, nullptr, ServerConfig{}),
               std::invalid_argument);
}

TEST(ServerTest, ControllerRejectionPropagates) {
  auto model = nn::zoo::mlp(4, 8, 2);
  model->init(1);
  ServerConfig config;
  config.controller.absolute_min_batch = 1 << 20;  // reject everything
  FleetServer server(*model, make_profiler(), config);
  device::DeviceSim device(device::spec("Xperia E3"), 3);
  stats::LabelDistribution ld(2);
  ld.add(0, 1);
  const auto assignment =
      server.handle_request(device.features(), "Xperia E3", ld);
  EXPECT_FALSE(assignment.accepted);
  EXPECT_FALSE(assignment.reject_reason.empty());
  // A rejection ships no snapshot — and materializes none.
  EXPECT_EQ(assignment.snapshot, nullptr);
  EXPECT_TRUE(assignment.parameters().empty());
  EXPECT_EQ(server.store().publishes(), 0u);
}

TEST_F(ServerFixture, RefreshSnapshotServesExternallyLoadedParameters) {
  // Warm-start flow: a request caches theta for version 0, the operator
  // overwrites the model (e.g. nn::load_model), refresh_snapshot()
  // re-publishes so the fleet trains against the new weights.
  const auto before = server->handle_request(device->features(), "Galaxy S7",
                                             labels_01());
  std::vector<float> checkpoint(model->parameter_count(), 0.25f);
  model->load_parameters(checkpoint);
  server->refresh_snapshot();
  const auto after = server->handle_request(device->features(), "Galaxy S7",
                                            labels_01());
  EXPECT_EQ(after.model_version, before.model_version);
  ASSERT_NE(after.snapshot, nullptr);
  EXPECT_FLOAT_EQ(after.parameters()[0], 0.25f);
  // In-flight tasks keep the buffer they were assigned.
  EXPECT_NE(before.parameters()[0], 0.25f);
}

TEST_F(ServerFixture, ReceiptWeightMatchesAggregatorLog) {
  // handle_gradient computes the dampening weight exactly once, inside
  // submit(); the receipt reports that same applied weight. A twin
  // aggregator fed the same updates is the reference.
  learning::AsyncAggregator twin(model->parameter_count(), model->n_classes(),
                                 server->aggregator().config());
  std::vector<float> gradient(model->parameter_count(), 0.01f);
  const auto expect_twin_weight = [&](const GradientReceipt& receipt) {
    learning::WorkerUpdate update;
    update.gradient = gradient;
    update.staleness = receipt.staleness;
    update.label_dist = labels_01();
    update.mini_batch = 10;
    EXPECT_DOUBLE_EQ(receipt.weight, twin.submit(update).weight);
  };
  for (int i = 0; i < 4; ++i) {
    expect_twin_weight(
        server->handle_gradient(server->version(), gradient, labels_01(), 10));
  }
  const auto receipt = server->handle_gradient(0, gradient, labels_01(), 10);
  EXPECT_GT(receipt.staleness, 0.0);
  expect_twin_weight(receipt);
}

}  // namespace
}  // namespace fleet::core
