// Passive cluster-clock estimates (Corollary 3.5): an adjacent observer's
// replica tracks the observed cluster within E, under drift and faults.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/estimates.h"
#include "harness.h"

namespace ftgcs::core {
namespace {

using testing::ClusterHarness;

Params test_params(int f = 1) {
  return Params::practical(1e-3, 1.0, 0.01, f);
}

double estimate_error(ClusterHarness& harness, int observer_index) {
  // Max |L̃ − L_v| over live members of the observed cluster.
  const double est =
      harness.observer(observer_index).clock().read(harness.sim().now());
  double worst = 0.0;
  for (int i = 0; i < harness.k(); ++i) {
    if (!harness.has_engine(i)) continue;
    worst = std::max(worst, std::abs(est - harness.engine(i).clock().read(
                                               harness.sim().now())));
  }
  return worst;
}

TEST(Estimates, ObserverTracksClusterWithinBound) {
  const Params params = test_params();
  ClusterHarness::Options options;
  options.observers = 2;
  ClusterHarness harness(params, std::move(options));
  // Worst-case constant drift: observers slowest, cluster spread.
  for (int i = 0; i < harness.k(); ++i) {
    harness.engine(i).set_hardware_rate(0.0,
                                        1.0 + params.rho * (i % 2));
  }
  harness.start();
  double worst = 0.0;
  for (int step = 1; step <= 60; ++step) {
    harness.run_rounds(0.5 * step);
    worst = std::max(worst, estimate_error(harness, 0));
    worst = std::max(worst, estimate_error(harness, 1));
  }
  // Corollary 3.5: |L̃_wC − L_v| ≤ E. Allow the ϑ_g·E envelope that
  // Corollary 3.2 gives for any two logical clocks of the same execution.
  EXPECT_LE(worst, params.theta_g * params.E);
}

TEST(Estimates, ObserverSurvivesSilentFaults) {
  const Params params = test_params(1);
  ClusterHarness::Options options;
  options.observers = 1;
  options.active = 3;  // one silent member out of k=4
  ClusterHarness harness(params, std::move(options));
  harness.start();
  double worst = 0.0;
  for (int step = 1; step <= 40; ++step) {
    harness.run_rounds(step);
    worst = std::max(worst, estimate_error(harness, 0));
  }
  EXPECT_LE(worst, params.theta_g * params.E);
  EXPECT_EQ(harness.observer(0).violations(), 0u);
}

TEST(Estimates, TwoObserversAgreeWithEachOther) {
  // Both replicas track the same cluster, so they agree within 2E.
  const Params params = test_params();
  ClusterHarness::Options options;
  options.observers = 2;
  options.seed = 11;
  ClusterHarness harness(params, std::move(options));
  harness.start();
  double worst = 0.0;
  for (int step = 1; step <= 40; ++step) {
    harness.run_rounds(step);
    const double a = harness.observer(0).clock().read(harness.sim().now());
    const double b = harness.observer(1).clock().read(harness.sim().now());
    worst = std::max(worst, std::abs(a - b));
  }
  EXPECT_LE(worst, 2.0 * params.theta_g * params.E);
}

TEST(EstimateBank, ReadsPerPositionInClusterOrder) {
  // Bank-level unit test on a 3-cluster line: node in middle cluster
  // observes both ends, in the order given at construction.
  const Params params = test_params();
  sim::Simulator sim;
  const ClusterSyncConfig cfg = ClusterSyncConfig::from(params);
  sim::Rng rng(5);
  EstimateBank bank(sim, cfg, {2, 0}, 1.0, rng);
  bank.start();
  sim.run_until(0.5 * params.T);
  EXPECT_EQ(bank.clusters(), (std::vector<int>{2, 0}));
  for (std::size_t i = 0; i < bank.clusters().size(); ++i) {
    EXPECT_EQ(bank.estimate_at(i, sim.now()),
              bank.replica_at(i).clock().read(sim.now()));
    // Replicas progress on their own even without pulses (clamped).
    EXPECT_GT(bank.estimate_at(i, sim.now()), 0.0);
  }
}

TEST(EstimateBank, HardwareRateForwarding) {
  const Params params = test_params();
  sim::Simulator sim;
  const ClusterSyncConfig cfg = ClusterSyncConfig::from(params);
  sim::Rng rng(6);
  EstimateBank bank(sim, cfg, {0}, 1.0, rng);
  bank.set_hardware_rate(0.0, 1.0 + params.rho);
  EXPECT_DOUBLE_EQ(bank.replica_at(0).clock().hardware_rate(),
                   1.0 + params.rho);
}

}  // namespace
}  // namespace ftgcs::core
