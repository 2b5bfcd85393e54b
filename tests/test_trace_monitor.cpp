// Online invariant monitors vs offline ground truth.
//
// The monitor's skew scan is an independent reimplementation (edge-by-edge
// over the node adjacency) of metrics::measure_skews' cluster-extreme
// reduction; over the augmented graph (intra-cluster cliques + complete
// bipartite bundles) the two are provably equal. These tests check that
// equality AT EVERY PROBE on real runs — ring and torus, both queue
// backends, single-simulator and sharded — with crash-stop and Byzantine
// faults active so the crashed-exclusion path is exercised for real, plus
// synthetic-column pins for exclusion and first-violation cursor capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "byz/fault_plan.h"
#include "core/ftgcs_system.h"
#include "exp/exp.h"
#include "exp/topology_graph.h"
#include "metrics/skew_tracker.h"
#include "net/channel.h"
#include "par/sharded_system.h"
#include "trace/monitor.h"

namespace ftgcs {
namespace {

using exp::AxisValue;
using exp::ScenarioSpec;
using trace::InvariantMonitor;
using trace::MonitorBounds;
using trace::MonitorCursor;

/// Loose bounds so no real run violates; these tests pin measurement, not
/// the paper's envelopes (run.cpp derives those).
MonitorBounds loose_bounds() {
  MonitorBounds bounds;
  bounds.local_skew = 1e9;
  bounds.global_skew = 1e9;
  bounds.intra_cluster = 1e9;
  return bounds;
}

/// Drives `system` probe by probe and checks, at every probe, that a fresh
/// monitor's per-probe maxima equal measure_skews' node-level quantities
/// exactly, and that the cumulative monitor tracks the running maxima.
template <typename System>
void expect_monitor_matches_offline(System& system,
                                    const net::AugmentedTopology& topo,
                                    const core::Params& params,
                                    const std::vector<int>& crash_ids,
                                    const std::string& label) {
  const net::UniformDelay delays(params.d, params.U);
  const exp::TopologyGraph graph = exp::build_topology_graph(topo, delays);

  InvariantMonitor cumulative(graph, loose_bounds());
  metrics::SkewSample running;

  system.start();
  for (int id : crash_ids) system.node(id).crash_at(4.25 * params.T);

  core::SystemColumns columns;
  for (int probe = 1; probe <= 24; ++probe) {
    const sim::Time t = probe * 0.5 * params.T;
    system.run_until(t);
    system.snapshot_columns(columns);
    const metrics::SkewSample offline = metrics::measure_skews(columns, topo);

    MonitorCursor cursor;
    cursor.at = t;
    InvariantMonitor fresh(graph, loose_bounds());
    fresh.observe(columns, cursor);
    EXPECT_EQ(fresh.stats().max_local_skew, offline.node_local)
        << label << " probe " << probe;
    EXPECT_EQ(fresh.stats().max_global_skew, offline.node_global)
        << label << " probe " << probe;
    EXPECT_EQ(fresh.stats().max_intra_cluster, offline.intra_cluster)
        << label << " probe " << probe;

    cumulative.observe(columns, cursor);
    running.node_local = std::max(running.node_local, offline.node_local);
    running.node_global = std::max(running.node_global, offline.node_global);
    running.intra_cluster =
        std::max(running.intra_cluster, offline.intra_cluster);
    EXPECT_EQ(cumulative.stats().max_local_skew, running.node_local)
        << label << " probe " << probe;
    EXPECT_EQ(cumulative.stats().max_global_skew, running.node_global)
        << label << " probe " << probe;
    EXPECT_EQ(cumulative.stats().max_intra_cluster, running.intra_cluster)
        << label << " probe " << probe;
  }
  EXPECT_EQ(cumulative.stats().probes, 24u) << label;
  EXPECT_EQ(cumulative.stats().violations, 0u) << label;
  EXPECT_FALSE(cumulative.stats().has_violation) << label;
}

/// One correct member per listed cluster (crash victims).
std::vector<int> pick_crash_ids(const core::FtGcsSystem& system,
                                const net::AugmentedTopology& topo,
                                const std::vector<int>& clusters) {
  std::vector<int> ids;
  for (int cluster : clusters) {
    for (int member : topo.members(cluster)) {
      if (system.is_correct(member)) {
        ids.push_back(member);
        break;
      }
    }
  }
  return ids;
}

void run_property(const net::Graph& graph, const std::vector<int>& crashes,
                  int shards, const std::string& label) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  const net::AugmentedTopology topo(graph, params.k);
  const byz::FaultPlan plan = byz::FaultPlan::uniform(
      topo, 1, byz::StrategyKind::kTwoFaced, 3.0 * params.E, /*seed=*/77);

  if (shards == 1) {
    core::FtGcsSystem::Config config;
    config.params = params;
    config.seed = 5;
    config.fault_plan = plan;
    core::FtGcsSystem system(graph, std::move(config));
    expect_monitor_matches_offline(
        system, topo, params, pick_crash_ids(system, topo, crashes), label);
  } else {
    par::ShardedFtGcsSystem::Config config;
    config.params = params;
    config.seed = 5;
    config.fault_plan = plan;
    config.shards = shards;
    par::ShardedFtGcsSystem system(graph, std::move(config));
    // Victim selection needs a correctness oracle; build a twin single
    // system just to pick ids (fault plans are seed-deterministic).
    core::FtGcsSystem::Config oracle_config;
    oracle_config.params = params;
    oracle_config.seed = 5;
    oracle_config.fault_plan = plan;
    core::FtGcsSystem oracle(graph, std::move(oracle_config));
    expect_monitor_matches_offline(
        system, topo, params, pick_crash_ids(oracle, topo, crashes), label);
  }
}

TEST(TraceMonitor, MatchesOfflineSkewsOnRingEveryProbe) {
  const net::Graph graph = net::Graph::ring(8);
  run_property(graph, {1, 6}, 1, "ring/s1");
  run_property(graph, {1, 6}, 2, "ring/s2");
}

TEST(TraceMonitor, MatchesOfflineSkewsOnTorusEveryProbe) {
  const net::Graph graph = net::Graph::torus(4, 4);
  run_property(graph, {0, 10}, 1, "torus/s1");
  run_property(graph, {0, 10}, 2, "torus/s2");
}

/// Two-cluster graph (k = 2, clusters {0,1} and {2,3}, full bipartite
/// bundle) for synthetic-column pins.
exp::TopologyGraph tiny_graph() {
  static const net::AugmentedTopology topo(net::Graph::line(2), 2);
  return exp::build_topology_graph(topo, net::UniformDelay(1.0, 0.01));
}

core::SystemColumns tiny_columns(std::vector<double> logical,
                                 std::vector<std::uint8_t> correct) {
  core::SystemColumns columns;
  columns.at = 1.0;
  columns.logical = std::move(logical);
  columns.correct = std::move(correct);
  columns.gamma = {0, 0, 0, 0};
  return columns;
}

TEST(TraceMonitor, CrashedNodesAreExcludedFromEveryAggregate) {
  InvariantMonitor monitor(tiny_graph(), loose_bounds());
  // Node 1 crashed with a wildly wrong clock: with correct = 0 it must not
  // touch any aggregate...
  monitor.observe(tiny_columns({10.0, 5000.0, 10.5, 11.0}, {1, 0, 1, 1}),
                  MonitorCursor{});
  EXPECT_EQ(monitor.stats().max_local_skew, 1.0);    // 10.0 vs 11.0
  EXPECT_EQ(monitor.stats().max_global_skew, 1.0);   // [10.0, 11.0]
  EXPECT_EQ(monitor.stats().max_intra_cluster, 0.5);  // 10.5 vs 11.0
  EXPECT_EQ(monitor.stats().violations, 0u);

  // ...whereas the same columns with node 1 marked correct blow all three
  // aggregates up — proving the exclusion above did the work.
  InvariantMonitor control(tiny_graph(), loose_bounds());
  control.observe(tiny_columns({10.0, 5000.0, 10.5, 11.0}, {1, 1, 1, 1}),
                  MonitorCursor{});
  EXPECT_EQ(control.stats().max_local_skew, 4990.0);
  EXPECT_EQ(control.stats().max_global_skew, 4990.0);
  EXPECT_EQ(control.stats().max_intra_cluster, 4990.0);
}

TEST(TraceMonitor, FirstViolationCapturesReplayCursor) {
  MonitorBounds bounds;
  bounds.local_skew = 0.25;
  bounds.global_skew = 1e9;
  bounds.intra_cluster = 0.25;
  InvariantMonitor monitor(tiny_graph(), bounds);

  MonitorCursor clean;
  clean.at = 1.0;
  monitor.observe(tiny_columns({10.0, 10.1, 10.0, 10.1}, {1, 1, 1, 1}),
                  clean);
  EXPECT_FALSE(monitor.stats().has_violation);

  MonitorCursor bad;
  bad.at = 2.0;
  bad.events = 123;
  bad.trace_records = 45;
  bad.trace_offset = 6789;
  monitor.observe(tiny_columns({10.0, 10.4, 10.0, 10.1}, {1, 1, 1, 1}), bad);

  // 0.4 exceeds both the local and the intra bound at this probe.
  EXPECT_EQ(monitor.stats().violations, 2u);
  ASSERT_TRUE(monitor.stats().has_violation);
  const trace::Violation& first = monitor.stats().first;
  EXPECT_STREQ(first.invariant, "local_skew");
  EXPECT_EQ(first.value, 10.4 - 10.0);  // same float op the scan performs
  EXPECT_EQ(first.bound, 0.25);
  EXPECT_EQ(first.cursor.at, 2.0);
  EXPECT_EQ(first.cursor.events, 123u);
  EXPECT_EQ(first.cursor.trace_records, 45u);
  EXPECT_EQ(first.cursor.trace_offset, 6789u);

  // Later violations do not overwrite the first cursor.
  MonitorCursor later;
  later.at = 3.0;
  monitor.observe(tiny_columns({10.0, 10.9, 10.0, 10.1}, {1, 1, 1, 1}),
                  later);
  EXPECT_EQ(monitor.stats().first.cursor.at, 2.0);
  EXPECT_EQ(monitor.stats().violations, 4u);

  // Margins: bound − running max; disabled invariants report +inf.
  EXPECT_EQ(monitor.local_margin(), 0.25 - (10.9 - 10.0));
  EXPECT_TRUE(std::isinf(monitor.m_lag_margin()));
}

TEST(TraceMonitor, RunPointReportsMatchMetricsAndAgreeAcrossShards) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_ring");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);

  const auto run_with = [&](int shards) {
    ScenarioSpec s = spec;
    s.shards = shards;
    return run_point(s, 1);
  };

  const exp::RunResult base = run_with(1);
  ASSERT_GT(base.monitor.stats.probes, 0u);
  // The monitor's running node-level maxima must equal the offline metric
  // schema's — same snapshots, independent reductions.
  EXPECT_EQ(base.monitor.stats.max_local_skew, base.metric("max_node_local"));
  EXPECT_EQ(base.monitor.stats.max_intra_cluster, base.metric("max_intra"));
  EXPECT_GE(base.monitor.stats.max_global_skew, base.metric("max_global"));
  EXPECT_EQ(base.monitor.stats.violations, 0u);
  EXPECT_TRUE(std::isfinite(base.monitor.local_margin));  // bound enabled

  for (int shards : {2, 4}) {
    const exp::RunResult other = run_with(shards);
    EXPECT_EQ(other.monitor.stats.probes, base.monitor.stats.probes);
    EXPECT_EQ(other.monitor.stats.violations, base.monitor.stats.violations);
    EXPECT_EQ(other.monitor.stats.max_local_skew,
              base.monitor.stats.max_local_skew);
    EXPECT_EQ(other.monitor.stats.max_global_skew,
              base.monitor.stats.max_global_skew);
    EXPECT_EQ(other.monitor.stats.max_intra_cluster,
              base.monitor.stats.max_intra_cluster);
  }

  ScenarioSpec off = spec;
  off.monitors = false;
  const exp::RunResult no_monitor = run_point(off, 1);
  EXPECT_EQ(no_monitor.monitor.stats.probes, 0u);
}

}  // namespace
}  // namespace ftgcs
