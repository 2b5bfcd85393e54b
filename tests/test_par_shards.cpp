// Shard determinism pins for the conservative-parallel backend (src/par/).
//
// The backend's contract is bit-identity, not approximate agreement: for
// every shard count T the scenario tables must equal the single-simulator
// engine's exactly — same RNG draw order per stream, same per-node event
// order, same merged snapshots, same counters. These tests pin that for
// the registered large_ring / large_torus workloads (scaled-down cluster
// counts, same generators and traffic shape), for a fault-heavy E9
// variant whose Byzantine senders sit in every cluster (so their pulses
// cross every shard boundary), and for crash-stop faults injected on both
// sides of a cut.
#include <gtest/gtest.h>

#include <vector>

#include "byz/fault_plan.h"
#include "core/ftgcs_system.h"
#include "exp/exp.h"
#include "exp/topology_graph.h"
#include "net/channel.h"
#include "par/partition.h"
#include "par/sharded_system.h"

namespace ftgcs {
namespace {

using exp::AxisValue;
using exp::RunResult;
using exp::ScenarioSpec;

void expect_same_metrics(const RunResult& base, const RunResult& other,
                         const std::string& label) {
  ASSERT_EQ(base.metrics.size(), other.metrics.size()) << label;
  for (std::size_t m = 0; m < base.metrics.size(); ++m) {
    EXPECT_EQ(base.metrics[m].first, other.metrics[m].first) << label;
    EXPECT_EQ(base.metrics[m].second, other.metrics[m].second)
        << label << ": metric '" << base.metrics[m].first << "' differs";
  }
}

/// Runs `spec` at the given shard count.
RunResult run_with(ScenarioSpec spec, int shards, std::uint64_t seed) {
  spec.shards = shards;
  return run_point(spec, seed);
}

TEST(ParShards, PartitionStripesAreBalancedAndSpatial) {
  const net::AugmentedTopology topo(net::Graph::ring(10), 4);
  const net::UniformDelay delays(1.0, 0.01);
  const exp::TopologyGraph graph = exp::build_topology_graph(topo, delays);

  const par::ShardPlan plan = par::make_shard_plan(graph, 2);
  ASSERT_EQ(plan.num_shards, 2);
  // Contiguous halves of the ring.
  for (int c = 0; c < 10; ++c) {
    EXPECT_EQ(plan.cluster_owner[static_cast<std::size_t>(c)], c < 5 ? 0 : 1);
  }
  // A ring split into two arcs has exactly two cut cluster edges; each is
  // a complete bipartite k×k bundle counted in both directions.
  EXPECT_EQ(plan.cut_edges, 2u * 2u * 4u * 4u);
  EXPECT_DOUBLE_EQ(plan.min_cut_delay, 0.99);
  EXPECT_FALSE(plan.degenerate());
}

TEST(ParShards, PartitionClampsAndDegenerates) {
  const net::AugmentedTopology topo(net::Graph::line(3), 4);
  const net::UniformDelay delays(1.0, 0.01);
  exp::TopologyGraph graph = exp::build_topology_graph(topo, delays);

  // Requesting more shards than clusters clamps.
  EXPECT_EQ(par::make_shard_plan(graph, 8).num_shards, 3);
  // One shard is degenerate by definition.
  EXPECT_TRUE(par::make_shard_plan(graph, 1).degenerate());
  // A zero conservative lookahead (u = d) admits no safe window.
  graph.min_delay = 0.0;
  EXPECT_TRUE(par::make_shard_plan(graph, 2).degenerate());
}

TEST(ParShards, LargeRingBitIdenticalAtEveryShardCount) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_ring");
  spec.axes = {{"clusters", {AxisValue::of(200)}}};
  apply_axis(spec, "clusters", 200.0);

  const RunResult base = run_with(spec, 1, 1);
  for (int shards : {2, 4, 8}) {
    expect_same_metrics(base, run_with(spec, shards, 1),
                        "ring shards=" + std::to_string(shards));
  }
}

TEST(ParShards, LargeTorusBitIdenticalAcrossShards) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes = {{"clusters", {AxisValue::of(256)}}};
  apply_axis(spec, "clusters", 256.0);

  const RunResult base = run_with(spec, 1, 1);
  for (int shards : {2, 4}) {
    expect_same_metrics(base, run_with(spec, shards, 1),
                        "torus shards=" + std::to_string(shards));
  }
}

// Fault-heavy E9 variant: every cluster carries active Byzantine members
// (two-faced at full budget), so adversarial traffic crosses every shard
// boundary; the whole f-sweep grid must stay bit-identical.
TEST(ParShards, FaultHeavyE9GridIdenticalAcrossShards) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("e9_overhead_scaling");
  spec.faults.mode = exp::FaultMode::kUniform;
  spec.faults.count = -1;  // full budget f per cluster
  spec.faults.strategy = byz::StrategyKind::kTwoFaced;
  spec.faults.param_times_E = 1.0;
  spec.horizon.base_rounds = 30.0;

  exp::SweepRunner runner({1, false});
  ScenarioSpec single = spec;
  const exp::SweepResult base = runner.run(single);
  for (int shards : {2, 4}) {
    ScenarioSpec sharded = spec;
    sharded.shards = shards;
    const exp::SweepResult result = runner.run(sharded);
    ASSERT_EQ(base.rows.size(), result.rows.size());
    for (std::size_t r = 0; r < base.rows.size(); ++r) {
      expect_same_metrics(base.rows[r], result.rows[r],
                          "e9 row " + std::to_string(r) + " shards=" +
                              std::to_string(shards));
    }
  }
}

// The hooks a run layer puts in front of each node (E3's γ regime, the
// pulse-diameter recorder) and the per-shard delay adversary and
// transient fault (E12) on a multi-cluster line: every row, optional
// metric groups included, must match the single-simulator engine.
TEST(ParShards, ClaimVariationsIdenticalAcrossShards) {
  exp::register_builtin_scenarios();
  for (const char* name : {"e3_unanimous_convergence",
                           "e12_recovery_contraction"}) {
    ScenarioSpec spec = *exp::Registry::instance().find(name);
    exp::apply_axis(spec, "clusters", 4.0);
    exp::SweepRunner runner({1, false});
    const exp::SweepResult base = runner.run(spec);
    for (int shards : {2, 4}) {
      ScenarioSpec sharded = spec;
      sharded.shards = shards;
      const exp::SweepResult result = runner.run(sharded);
      ASSERT_EQ(base.rows.size(), result.rows.size());
      for (std::size_t r = 0; r < base.rows.size(); ++r) {
        EXPECT_EQ(result.rows[r].shard.shards, shards) << name;
        expect_same_metrics(base.rows[r], result.rows[r],
                            std::string(name) + " row " + std::to_string(r) +
                                " shards=" + std::to_string(shards));
      }
    }
  }
}

// Crash-stop across the cut: correct nodes on both sides of a shard
// boundary crash mid-run (their timers halt, their sinks go null, their
// table flags flip), next to per-cluster Byzantine noise. Ground-truth
// snapshots and all counters must match the single-simulator engine at
// every probe.
TEST(ParShards, CrashStopAndByzantineAcrossCutMatchSingleSimulator) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  const net::Graph graph = net::Graph::ring(8);
  const net::AugmentedTopology topo(graph, params.k);
  const byz::FaultPlan plan = byz::FaultPlan::uniform(
      topo, 1, byz::StrategyKind::kTwoFaced, 3.0 * params.E, /*seed=*/77);

  core::FtGcsSystem::Config single_config;
  single_config.params = params;
  single_config.seed = 5;
  single_config.fault_plan = plan;
  core::FtGcsSystem single(graph, std::move(single_config));

  par::ShardedFtGcsSystem::Config sharded_config;
  sharded_config.params = params;
  sharded_config.seed = 5;
  sharded_config.fault_plan = plan;
  sharded_config.shards = 2;
  par::ShardedFtGcsSystem sharded(graph, std::move(sharded_config));
  ASSERT_EQ(sharded.num_shards(), 2);

  // One correct member from each half of the ring (shard 0 owns clusters
  // 0–3, shard 1 owns 4–7); both crash mid-run.
  std::vector<int> crash_ids;
  for (int cluster : {1, 6}) {
    for (int member : topo.members(cluster)) {
      if (single.is_correct(member)) {
        crash_ids.push_back(member);
        break;
      }
    }
  }
  ASSERT_EQ(crash_ids.size(), 2u);

  single.start();
  sharded.start();
  for (int id : crash_ids) {
    single.node(id).crash_at(4.25 * params.T);
    sharded.node(id).crash_at(4.25 * params.T);
  }

  core::SystemColumns single_columns;
  core::SystemColumns sharded_columns;
  for (int round = 1; round <= 12; ++round) {
    const sim::Time t = round * params.T;
    single.run_until(t);
    sharded.run_until(t);
    single.snapshot_columns(single_columns);
    sharded.snapshot_columns(sharded_columns);
    ASSERT_EQ(single_columns.num_nodes(), sharded_columns.num_nodes());
    for (int id = 0; id < single_columns.num_nodes(); ++id) {
      const auto i = static_cast<std::size_t>(id);
      EXPECT_EQ(single_columns.correct[i], sharded_columns.correct[i])
          << "node " << id << " at round " << round;
      EXPECT_EQ(single_columns.logical[i], sharded_columns.logical[i])
          << "node " << id << " at round " << round;
      EXPECT_EQ(single_columns.gamma[i], sharded_columns.gamma[i])
          << "node " << id << " at round " << round;
    }
  }
  for (int id : crash_ids) {
    EXPECT_TRUE(single.node(id).crashed());
    EXPECT_TRUE(sharded.node(id).crashed());
  }
  EXPECT_EQ(single.total_violations(), sharded.total_violations());
  EXPECT_EQ(single.network().messages_sent(), sharded.messages_sent());
  EXPECT_EQ(single.simulator().fired_events(), sharded.fired_events());
}

}  // namespace
}  // namespace ftgcs
