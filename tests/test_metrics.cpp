#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "byz/fault_plan.h"
#include "metrics/skew_tracker.h"
#include "metrics/table.h"
#include "obs/pulse_diameters.h"
#include "obs/settle_time.h"

namespace ftgcs::metrics {
namespace {

TEST(Table, FormatsRows) {
  Table table({"a", "bb", "ccc"});
  table.add_row({"1", "2", "3"});
  table.add_row({"10", "20", "30"});
  std::ostringstream pretty;
  table.print(pretty);
  EXPECT_NE(pretty.str().find("a"), std::string::npos);
  EXPECT_NE(pretty.str().find("30"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456789, 3), "1.23");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(PulseDiameters, TracksMinMaxPerRound) {
  obs::PulseDiameters trace({3});
  trace.record(0, 1, 10.0);
  trace.record(0, 1, 10.4);
  EXPECT_TRUE(trace.complete_rounds().empty());  // 2 of 3 members
  trace.record(0, 1, 10.2);  // inside the envelope: no change
  ASSERT_EQ(trace.complete_rounds().size(), 1u);
  EXPECT_EQ(trace.complete_rounds()[0].first, 1);
  EXPECT_NEAR(trace.complete_rounds()[0].second, 0.4, 1e-12);
  // complete_rounds only reports rounds with all 3 members.
  trace.record(0, 2, 20.0);
  EXPECT_EQ(trace.complete_rounds().size(), 1u);
}

TEST(PulseDiameters, CompleteRoundsTakeTheWorstCluster) {
  obs::PulseDiameters trace({2, 2});
  trace.record(0, 1, 1.0);
  trace.record(0, 1, 1.5);
  trace.record(1, 1, 2.0);
  trace.record(1, 1, 2.25);
  trace.record(1, 2, 5.0);  // cluster 1's round 2 is incomplete
  trace.record(0, 2, 5.0);
  trace.record(0, 2, 5.125);
  const auto rounds = trace.complete_rounds();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].first, 1);
  EXPECT_DOUBLE_EQ(rounds[0].second, 0.5);
  EXPECT_EQ(rounds[1].first, 2);
  EXPECT_DOUBLE_EQ(rounds[1].second, 0.125);
}

TEST(MeasureSkews, ComputesAllQuantitiesFromSnapshot) {
  // Hand-crafted snapshot on a 3-cluster line with k = 2.
  net::AugmentedTopology topo(net::Graph::line(3), 2);
  core::SystemSnapshot snap;
  snap.at = 1.0;
  // Cluster 0: {10.0, 10.2}  → clock 10.1
  // Cluster 1: {11.0, faulty} → clock 11.0
  // Cluster 2: {12.0, 12.4}  → clock 12.2
  auto add = [&](int id, bool correct, double logical) {
    core::SystemSnapshot::NodeState state;
    state.id = id;
    state.cluster = topo.cluster_of(id);
    state.correct = correct;
    state.logical = logical;
    snap.nodes.push_back(state);
  };
  add(0, true, 10.0);
  add(1, true, 10.2);
  add(2, true, 11.0);
  add(3, false, 0.0);
  add(4, true, 12.0);
  add(5, true, 12.4);

  const SkewSample s = measure_skews(snap, topo);
  EXPECT_NEAR(s.intra_cluster, 0.4, 1e-12);
  EXPECT_NEAR(s.cluster_local, 1.2, 1e-12);   // |11.0 − 12.2|
  EXPECT_NEAR(s.cluster_global, 2.1, 1e-12);  // 12.2 − 10.1
  EXPECT_NEAR(s.node_global, 2.4, 1e-12);     // 12.4 − 10.0
  // Node-local: max over adjacent-cluster extremes: |12.4 − 11.0| = 1.4.
  EXPECT_NEAR(s.node_local, 1.4, 1e-12);
}

TEST(SettleTime, FindsEntryIntoBand) {
  obs::SettleTime tracker(1.0);
  tracker.add(0.0, 5.0);
  tracker.add(1.0, 2.0);
  tracker.add(2.0, 0.8);
  tracker.add(3.0, 0.5);
  ASSERT_TRUE(tracker.settled_at().has_value());
  EXPECT_DOUBLE_EQ(*tracker.settled_at(), 2.0);
}

TEST(SettleTime, RelapseResetsTheClock) {
  obs::SettleTime tracker(1.0);
  tracker.add(0.0, 0.5);   // in band...
  tracker.add(1.0, 3.0);   // ...but relapses
  tracker.add(2.0, 0.5);
  tracker.add(3.0, 0.4);
  ASSERT_TRUE(tracker.settled_at().has_value());
  EXPECT_DOUBLE_EQ(*tracker.settled_at(), 2.0);
}

TEST(SettleTime, NeverSettled) {
  obs::SettleTime tracker(1.0);
  tracker.add(0.0, 2.0);
  tracker.add(1.0, 3.0);
  EXPECT_FALSE(tracker.settled_at().has_value());
  EXPECT_FALSE(obs::SettleTime(1.0).settled_at().has_value());
}

TEST(SettleTime, BoundaryValueCountsAsInBand) {
  obs::SettleTime tracker(1.0);
  tracker.add(0.0, 1.0);  // exactly at the threshold
  ASSERT_TRUE(tracker.settled_at().has_value());
  EXPECT_DOUBLE_EQ(*tracker.settled_at(), 0.0);
}

TEST(MeasureSkews, FullyFaultyClusterSkipped) {
  net::AugmentedTopology topo(net::Graph::line(2), 2);
  core::SystemSnapshot snap;
  auto add = [&](int id, bool correct, double logical) {
    core::SystemSnapshot::NodeState state;
    state.id = id;
    state.cluster = topo.cluster_of(id);
    state.correct = correct;
    state.logical = logical;
    snap.nodes.push_back(state);
  };
  add(0, true, 5.0);
  add(1, true, 5.5);
  add(2, false, 0.0);
  add(3, false, 0.0);
  const SkewSample s = measure_skews(snap, topo);
  EXPECT_DOUBLE_EQ(s.intra_cluster, 0.5);
  EXPECT_DOUBLE_EQ(s.cluster_local, 0.0);  // no live pair
  EXPECT_DOUBLE_EQ(s.cluster_global, 0.0);
}

// The probe clock is t0 + k·interval, not a running sum: sample 20 of a
// T/4 probe lands on 5T exactly (a summed clock falls one ulp short), so
// a steady window opening at 5T counts it. On this run (one cluster, f = 1
// two-faced member at strength E, seed 1) the steady maximum lies on that
// very sample.
TEST(SkewProbe, SamplesLandExactlyOnTheIntervalGrid) {
  const core::Params params = core::Params::practical(1e-4, 1.0, 0.05, 1);
  const net::Graph graph = net::Graph::line(1);
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 1;
  config.fault_plan = byz::FaultPlan::uniform(
      net::AugmentedTopology(graph, params.k), 1,
      byz::StrategyKind::kTwoFaced, params.E, 1);
  core::FtGcsSystem system(graph, std::move(config));
  const double interval = params.T / 4.0;
  SkewProbe probe(system, interval, 5.0 * params.T);
  probe.start();
  system.start();
  system.run_until(20.0 * params.T);

  const auto& samples = probe.samples();
  EXPECT_EQ(samples.size(), 80u);
  ASSERT_GE(samples.size(), 20u);
  double steady = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].at, static_cast<double>(i + 1) * interval) << i;
    if (i + 1 >= 20) steady = std::max(steady, samples[i].intra_cluster);
  }
  EXPECT_EQ(samples[19].at, 5.0 * params.T);
  EXPECT_EQ(probe.steady_max().intra_cluster, steady);
  EXPECT_EQ(probe.steady_max().intra_cluster, samples[19].intra_cluster);
}

}  // namespace
}  // namespace ftgcs::metrics
