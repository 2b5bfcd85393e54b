// Tree-synchronization baselines: node-level master/slave (TreeSyncSystem)
// and the fault-tolerant clustered variant (ClusterTreeSystem). Verifies
// the behaviour the paper's introduction attributes to them: good global
// skew, no local-skew guarantee (compression of the global skew onto a
// single edge when a correction wave propagates).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "baselines/cluster_tree_sync.h"
#include "baselines/tree_sync.h"
#include "net/graph.h"

namespace ftgcs::baselines {
namespace {

std::string sig(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

TEST(TreeSync, ConvergesFromZeroState) {
  TreeSyncSystem::Config config;
  config.rho = 1e-3;
  config.d = 1.0;
  config.U = 0.1;
  config.share_period = 2.0;
  config.seed = 1;
  TreeSyncSystem system(net::Graph::line(6), std::move(config));
  system.start();
  system.run_until(200.0);
  // Steady state: per-hop error ≤ U/2 + drift over one period + delay;
  // global ≤ depth times that.
  EXPECT_LE(system.global_skew(), 6.0 * (0.05 + 1e-3 * 3.0 + 0.01));
}

TEST(TreeSync, ParentPointersFollowBfs) {
  TreeSyncSystem::Config config;
  config.rho = 1e-3;
  config.d = 1.0;
  config.U = 0.1;
  config.share_period = 2.0;
  TreeSyncSystem system(net::Graph::line(4), std::move(config));
  EXPECT_EQ(system.parent_of(0), -1);
  EXPECT_EQ(system.parent_of(1), 0);
  EXPECT_EQ(system.parent_of(3), 2);
}

TEST(TreeSync, CompressionWaveConcentratesGlobalSkew) {
  // The paper's claim (§1, cf. [15]): start with the global skew evenly
  // distributed over the line (per-edge gap g, global skew S = (n−1)·g).
  // As the master/slave correction wave sweeps the line, node i jumps to
  // the root's level while node i+1 still holds the old ramp value: the
  // wavefront edge carries ≈ i·g — approaching the FULL global skew on a
  // single edge.
  const int n = 9;
  const double gap = 5.0;
  TreeSyncSystem::Config config;
  config.rho = 1e-4;
  config.d = 1.0;
  config.U = 0.05;
  config.share_period = 4.0;
  config.seed = 2;
  for (int i = 0; i < n; ++i) {
    config.initial_logical.push_back(i * gap);  // root lowest
  }
  TreeSyncSystem system(net::Graph::line(n), std::move(config));
  const double initial_global = (n - 1) * gap;

  system.start();
  double worst_local = 0.0;
  for (int step = 1; step <= 400; ++step) {
    system.run_until(step * 0.25);
    worst_local = std::max(worst_local, system.local_skew());
  }
  // The wave compresses most of the global skew onto single edges.
  EXPECT_GE(worst_local, 0.7 * initial_global);
  // And the system does converge globally afterwards.
  system.run_until(400.0);
  EXPECT_LE(system.global_skew(), 1.0);
}

core::Params tree_params() {
  return core::Params::practical(1e-3, 1.0, 0.01, 1);
}

TEST(ClusterTree, ConvergesAndBoundsGlobalSkew) {
  ClusterTreeSystem::Config config;
  config.params = tree_params();
  config.seed = 3;
  ClusterTreeSystem system(net::Graph::line(5), std::move(config));
  system.start();
  system.run_until(50.0 * tree_params().T);
  EXPECT_LE(system.cluster_global_skew(),
            5.0 * tree_params().intra_cluster_skew_bound());
  EXPECT_EQ(system.total_violations(), 0u);
}

TEST(ClusterTree, ToleratesFFaultsPerCluster) {
  const core::Params params = tree_params();
  net::AugmentedTopology topo_probe(net::Graph::line(4), params.k);
  ClusterTreeSystem::Config config;
  config.params = params;
  config.seed = 4;
  config.fault_plan = byz::FaultPlan::uniform(
      topo_probe, params.f, byz::StrategyKind::kTwoFaced, 2.0 * params.E, 4);
  ClusterTreeSystem system(net::Graph::line(4), std::move(config));
  system.start();
  system.run_until(50.0 * params.T);
  // Slaved clusters still track their parents within a few E.
  EXPECT_LE(system.cluster_local_skew(), params.kappa);
}

TEST(ClusterTree, RampCompressesOntoSingleClusterEdge) {
  // Clustered version of the compression experiment: with jump-corrections
  // toward the parent cluster, the absorption wave concentrates skew.
  const core::Params params = tree_params();
  const int clusters = 6;
  const int gap_rounds = 3;
  ClusterTreeSystem::Config config;
  config.params = params;
  config.seed = 5;
  for (int c = 0; c < clusters; ++c) {
    config.cluster_round_offsets.push_back(c * gap_rounds);
  }
  ClusterTreeSystem system(net::Graph::line(clusters), std::move(config));
  const double initial_global = (clusters - 1) * gap_rounds * params.T;
  const double initial_local = gap_rounds * params.T;

  system.start();
  double worst_local = 0.0;
  for (int step = 1; step <= 300; ++step) {
    system.run_until(step * params.T / 4.0);
    worst_local = std::max(worst_local, system.cluster_local_skew());
  }
  // Local skew grows well beyond the initial per-edge gap — the tree has
  // no gradient property (unlike FT-GCS on the same scenario, see
  // test_ftgcs_system.cpp).
  EXPECT_GE(worst_local, 1.5 * initial_local);
  EXPECT_GE(worst_local, 0.4 * initial_global);
}

// Exact pins: the bounds above would not notice a change in the event
// schedule. Both tree baselines run on the default Simulator; the fired
// event count and one skew value at 12 significant digits were captured
// before the queue's heap front-end was retired, and must not move.
TEST(TreeBaselines, FiredEventsAndSkewPinned) {
  TreeSyncSystem::Config tree;
  tree.rho = 1e-3;
  tree.d = 1.0;
  tree.U = 0.1;
  tree.share_period = 2.0;
  tree.seed = 1;
  TreeSyncSystem tree_system(net::Graph::line(6), std::move(tree));
  tree_system.start();
  tree_system.run_until(200.0);
  EXPECT_EQ(tree_system.simulator().fired_events(), 1684u);
  EXPECT_EQ(sig(tree_system.global_skew()), "0.0995639615051");

  ClusterTreeSystem::Config cluster;
  cluster.params = tree_params();
  cluster.seed = 3;
  ClusterTreeSystem cluster_system(net::Graph::line(5), std::move(cluster));
  cluster_system.start();
  cluster_system.run_until(50.0 * tree_params().T);
  EXPECT_EQ(cluster_system.simulator().fired_events(), 13952u);
  EXPECT_EQ(sig(cluster_system.cluster_global_skew()), "1.66720874514");
}

}  // namespace
}  // namespace ftgcs::baselines
