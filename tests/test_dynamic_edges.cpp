// Dynamic topology (paper App. A / [9, 10]): edges can be activated and
// deactivated at runtime; after activation the skew over the new edge
// stabilizes to the gradient bound within O(S/µ) time.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ftgcs_system.h"
#include "metrics/skew_tracker.h"
#include "net/graph.h"
#include "obs/settle_time.h"

namespace ftgcs::core {
namespace {

Params params() { return Params::practical(1e-3, 1.0, 0.01, 1); }

TEST(DynamicEdges, InactiveEdgeIgnoredByTriggers) {
  // Two clusters offset by a large gap, edge inactive: neither cluster
  // reacts to the other (no fast/slow triggers fire), despite the huge
  // apparent skew.
  const Params p = params();
  FtGcsSystem::Config config;
  config.params = p;
  config.seed = 1;
  config.enable_global_module = false;  // isolate the trigger layer
  config.cluster_round_offsets = {0, 12};
  config.initially_inactive_edges = {{0, 1}};
  FtGcsSystem system(net::Graph::line(2), std::move(config));
  system.start();
  system.run_until(40.0 * p.T);

  std::uint64_t trigger_modes = 0;
  for (int id = 0; id < system.topology().num_nodes(); ++id) {
    const auto& counts = system.node(id).mode_counts();
    trigger_modes += counts[static_cast<std::size_t>(
        ModeReason::kFastTrigger)];
    trigger_modes += counts[static_cast<std::size_t>(
        ModeReason::kSlowTrigger)];
    EXPECT_FALSE(system.node(id).edge_active(1 - system.node(id).cluster()));
  }
  EXPECT_EQ(trigger_modes, 0u);
  // The gap persists (nothing drained it).
  const double gap =
      *system.cluster_clock(1) - *system.cluster_clock(0);
  EXPECT_GT(gap, 10.0 * p.T);
}

TEST(DynamicEdges, ActivationDrainsTheGap) {
  const Params p = params();
  FtGcsSystem::Config config;
  config.params = p;
  config.seed = 2;
  config.cluster_round_offsets = {0, 6};
  config.initially_inactive_edges = {{0, 1}};
  FtGcsSystem system(net::Graph::line(2), std::move(config));
  const sim::Time activate_at = 10.0 * p.T;
  system.schedule_edge_toggle(0, 1, true, activate_at);
  system.start();

  // Stabilization target: the level-1 band 2κ. (The fast trigger fires
  // while the gap exceeds 2κ−δ, so the residual settles just below that;
  // one κ is not reachable by a one-sided drain — the GCS guarantee for
  // an adjacent pair is the level band, not zero.)
  obs::SettleTime tracker(2.0 * p.kappa);
  for (int step = 1; step <= 400; ++step) {
    system.run_until(step * p.T);
    tracker.add(system.simulator().now(),
                std::abs(*system.cluster_clock(1) -
                         *system.cluster_clock(0)));
  }
  const auto settled = tracker.settled_at();
  ASSERT_TRUE(settled.has_value()) << "gap never stabilized below 2*kappa";
  // O(S/µ): S = 6T; generous constant.
  const double s_over_mu = 6.0 * p.T / p.mu;
  EXPECT_LE(*settled - activate_at, 3.0 * s_over_mu);
  EXPECT_EQ(system.total_violations(), 0u);
}

TEST(DynamicEdges, StabilizationScalesWithInitialSkew) {
  // The App. A claim: stabilization in O(S/µ). Doubling S should roughly
  // double the stabilization delay (within a generous factor).
  const Params p = params();
  auto measure = [&](int gap_rounds) {
    FtGcsSystem::Config config;
    config.params = p;
    config.seed = 3;
    config.cluster_round_offsets = {0, gap_rounds};
    config.initially_inactive_edges = {{0, 1}};
    FtGcsSystem system(net::Graph::line(2), std::move(config));
    const sim::Time activate_at = 5.0 * p.T;
    system.schedule_edge_toggle(0, 1, true, activate_at);
    system.start();
    obs::SettleTime tracker(2.0 * p.kappa);
    for (int step = 1; step <= 1200; ++step) {
      system.run_until(step * p.T);
      tracker.add(system.simulator().now(),
                  std::abs(*system.cluster_clock(1) -
                           *system.cluster_clock(0)));
    }
    const auto settled = tracker.settled_at();
    EXPECT_TRUE(settled.has_value()) << "gap " << gap_rounds;
    return settled ? *settled - activate_at : 1e18;
  };
  // Delays scale with the skew above the 2κ band: expect roughly
  // (S − 2κ)/µ̂. Gaps chosen so both sit well above the band.
  const double small = measure(12);
  const double large = measure(24);
  EXPECT_GT(large, 1.5 * small);
  EXPECT_LT(large, 6.0 * small);
}

TEST(DynamicEdges, DeactivationDecouplesClusters) {
  // Ring of 4; removing one edge leaves a line — the system must stay
  // within bounds on the remaining edges (crash-fault equivalence).
  const Params p = params();
  FtGcsSystem::Config config;
  config.params = p;
  config.seed = 4;
  FtGcsSystem system(net::Graph::ring(4), std::move(config));
  system.schedule_edge_toggle(0, 1, false, 10.0 * p.T);
  system.start();
  system.run_until(60.0 * p.T);
  // Remaining path 1-2-3-0 still bounded on its edges.
  const double e12 = std::abs(*system.cluster_clock(1) -
                              *system.cluster_clock(2));
  const double e23 = std::abs(*system.cluster_clock(2) -
                              *system.cluster_clock(3));
  const double e30 = std::abs(*system.cluster_clock(3) -
                              *system.cluster_clock(0));
  EXPECT_LE(e12, p.kappa);
  EXPECT_LE(e23, p.kappa);
  EXPECT_LE(e30, p.kappa);
  EXPECT_EQ(system.total_violations(), 0u);
}

TEST(DynamicEdges, ToggleRequiresExistingEdge) {
  const Params p = params();
  FtGcsSystem::Config config;
  config.params = p;
  config.seed = 5;
  FtGcsSystem system(net::Graph::line(3), std::move(config));
  EXPECT_DEATH(system.set_edge_active(0, 2, false), "precondition");
}

}  // namespace
}  // namespace ftgcs::core
