// Columnar node table + batched dispatch path: crash-stop semantics, the
// table-backed snapshot, and invariance of the execution under different
// drain batchings (run_until boundaries, heap vs ladder).
#include "core/node_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/ftgcs_system.h"
#include "metrics/skew_tracker.h"
#include "net/graph.h"
#include "sim/rng.h"

namespace ftgcs::core {
namespace {

Params practical() { return Params::practical(1e-3, 1.0, 0.01, 1); }

struct NodeActivity {
  int round = 0;
  std::size_t armed = 0;
  std::vector<int> replica_rounds;
  std::vector<std::size_t> replica_armed;
  std::uint64_t dropped = 0;
  std::uint64_t duplicates = 0;
  std::array<std::uint64_t, 4> mode_counts{};

  static NodeActivity of(FtGcsNode& node) {
    NodeActivity a;
    a.round = node.engine().round();
    a.armed = node.engine().armed_timers();
    EstimateBank& bank = node.estimates();
    for (std::size_t i = 0; i < bank.clusters().size(); ++i) {
      const ClusterSyncEngine& replica = bank.replica_at(i);
      a.replica_rounds.push_back(replica.round());
      a.replica_armed.push_back(replica.armed_timers());
    }
    a.dropped = node.engine().dropped_pulses();
    a.duplicates = node.engine().duplicate_pulses();
    a.mode_counts = node.mode_counts();
    return a;
  }
};

TEST(CrashStop, CrashedNodeProcessesNothingFurther) {
  const Params params = practical();
  FtGcsSystem::Config config;
  config.params = params;
  config.seed = 21;
  FtGcsSystem system(net::Graph::line(2), std::move(config));
  const int victim = system.topology().node(0, 1);
  system.node(victim).crash_at(10.0 * params.T);
  system.start();

  system.run_until(12.0 * params.T);
  ASSERT_TRUE(system.node(victim).crashed());
  ASSERT_TRUE(system.node_table().crashed(victim));
  const NodeActivity at_crash = NodeActivity::of(system.node(victim));

  // Every timer family is cancelled at the instant of the crash.
  EXPECT_EQ(at_crash.armed, 0u);
  for (std::size_t armed : at_crash.replica_armed) EXPECT_EQ(armed, 0u);

  system.run_until(40.0 * params.T);
  const NodeActivity later = NodeActivity::of(system.node(victim));

  // The crashed node's protocol state is frozen: no round transitions, no
  // re-armed timers, no pulse processing (deliveries hit the null sink),
  // no further mode decisions.
  EXPECT_EQ(later.round, at_crash.round);
  EXPECT_EQ(later.armed, 0u);
  EXPECT_EQ(later.replica_rounds, at_crash.replica_rounds);
  for (std::size_t armed : later.replica_armed) EXPECT_EQ(armed, 0u);
  EXPECT_EQ(later.dropped, at_crash.dropped);
  EXPECT_EQ(later.duplicates, at_crash.duplicates);
  EXPECT_EQ(later.mode_counts, at_crash.mode_counts);

  // Meanwhile the rest of the system kept running and stayed within the
  // intra-cluster bound (one crash = the f budget).
  const int alive = system.topology().node(0, 0);
  EXPECT_GT(system.node(alive).engine().round(), at_crash.round + 20);
  SystemColumns columns;
  system.snapshot_columns(columns);
  EXPECT_EQ(columns.correct[static_cast<std::size_t>(victim)], 0);
  const auto skews = metrics::measure_skews(columns, system.topology());
  EXPECT_LE(skews.intra_cluster, params.intra_cluster_skew_bound());
}

TEST(CrashStop, EmissionTimerDoesNotResurrectOnRateChange) {
  // A crashed node still receives drift-model rate pushes; none of them
  // may re-arm the max-estimator emission schedule.
  const Params params = practical();
  FtGcsSystem::Config config;
  config.params = params;
  config.seed = 22;
  FtGcsSystem system(net::Graph::line(1), std::move(config));
  const int victim = system.topology().node(0, 0);
  system.node(victim).crash_at(5.0 * params.T);
  system.start();
  system.run_until(6.0 * params.T);
  ASSERT_TRUE(system.node(victim).crashed());
  const int round_at_crash = system.node(victim).engine().round();
  EXPECT_EQ(system.node(victim).engine().armed_timers(), 0u);
  // Push a legal rate change straight at the crashed node (what a drift
  // model would do) and run on: no new events may originate from it.
  system.node(victim).set_hardware_rate(system.simulator().now(), 1.0);
  system.run_until(8.0 * params.T);
  EXPECT_EQ(system.node(victim).engine().armed_timers(), 0u);
  EXPECT_EQ(system.node(victim).engine().round(), round_at_crash);
}

TEST(NodeTable, ColumnarSnapshotMatchesPerNodeState) {
  const Params params = practical();
  net::AugmentedTopology topo(net::Graph::line(3), params.k);
  FtGcsSystem::Config config;
  config.params = params;
  config.seed = 23;
  config.fault_plan = byz::FaultPlan::in_cluster(
      topo, 1, 1, byz::StrategyKind::kSilent, 0.0, 23);
  FtGcsSystem system(net::Graph::line(3), std::move(config));
  const int victim = system.topology().node(2, 0);
  system.node(victim).crash_at(7.0 * params.T);
  system.start();
  system.run_until(15.0 * params.T);

  SystemColumns columns;
  system.snapshot_columns(columns);
  const SystemSnapshot snapshot = system.snapshot();
  ASSERT_EQ(columns.num_nodes(), static_cast<int>(snapshot.nodes.size()));
  for (int id = 0; id < columns.num_nodes(); ++id) {
    const auto& row = snapshot.nodes[static_cast<std::size_t>(id)];
    const auto u = static_cast<std::size_t>(id);
    EXPECT_EQ(columns.correct[u] != 0, row.correct) << "node " << id;
    if (!row.correct) continue;
    // The lane clock mirror must reproduce LogicalClock::read bit-exactly.
    EXPECT_EQ(columns.logical[u], row.logical) << "node " << id;
    EXPECT_EQ(columns.gamma[u], row.gamma) << "node " << id;
  }
}

TEST(NodeTable, ExecutionInvariantUnderDrainBatching) {
  // The batch drain must be unobservable: running to one horizon in a
  // single run_until (long pure-receive runs) and in many tiny increments
  // (every boundary breaks a run) must execute the identical schedule.
  const Params params = practical();
  const double horizon = 12.0 * params.T;
  const auto run = [&](int increments) {
    FtGcsSystem::Config config;
    config.params = params;
    config.seed = 24;
    FtGcsSystem system(net::Graph::line(3), std::move(config));
    system.start();
    for (int i = 1; i <= increments; ++i) {
      system.run_until(horizon * i / increments);
    }
    SystemColumns columns;
    system.snapshot_columns(columns);
    columns.at = 0.0;  // compare state, not the probe instant
    struct Result {
      std::uint64_t events;
      std::vector<double> logical;
      std::vector<std::int32_t> gamma;
    };
    return Result{system.simulator().fired_events(), columns.logical,
                  columns.gamma};
  };
  const auto whole = run(1);
  const auto sliced = run(997);
  EXPECT_EQ(whole.events, sliced.events);
  EXPECT_EQ(whole.logical, sliced.logical);
  EXPECT_EQ(whole.gamma, sliced.gamma);
}

// Committing one tranche of receives to a lane in ANY order must produce
// bit-identical lane state (arrival slots, own_arrival, dropped,
// duplicates). The min-combine in lane_commit (core/receive_lane.h) is
// what buys this.
TEST(ReceiveLane, CommitOrderIndependentWithinATranche) {
  constexpr int k = 4;
  const auto fresh = [] {
    ReceiveLane lane;
    lane.arrivals = lane.inline_arrivals;
    for (double& slot : lane.inline_arrivals) slot = kUnsetArrival;
    lane.clock.l0 = 100.0;
    lane.clock.t0 = 10.0;
    lane.clock.rate = 1.25;
    lane.own_index = 2;
    lane.listening = 1;
    return lane;
  };

  // A tranche with duplicates (several receives per member, distinct
  // times), the own member among them, and one member unheard.
  struct Receive {
    int member;
    double at;
  };
  std::vector<Receive> tranche = {
      {0, 11.5}, {1, 11.75}, {0, 11.25}, {2, 12.0},
      {1, 11.6}, {2, 11.9},  {0, 11.8},
  };

  const auto commit_all = [&](ReceiveLane& lane) {
    for (const Receive& r : tranche) {
      lane_commit(lane, r.member, lane_arrival_value(lane, r.at));
    }
  };
  ReceiveLane expected = fresh();
  commit_all(expected);

  // Every rotation + a few swap-shuffles of the tranche.
  sim::Rng rng(41);
  for (int perm = 0; perm < 24; ++perm) {
    if (perm < static_cast<int>(tranche.size())) {
      std::rotate(tranche.begin(), tranche.begin() + 1, tranche.end());
    } else {
      const std::size_t a = rng.below(tranche.size());
      const std::size_t b = rng.below(tranche.size());
      std::swap(tranche[a], tranche[b]);
    }
    ReceiveLane lane = fresh();
    commit_all(lane);
    for (int m = 0; m < k; ++m) {
      const double want = expected.inline_arrivals[m];
      const double got = lane.inline_arrivals[m];
      if (want == want) {
        EXPECT_EQ(want, got) << "member " << m;
      } else {
        EXPECT_NE(got, got) << "member " << m;  // still unheard
      }
    }
    EXPECT_EQ(expected.own_arrival, lane.own_arrival);
    EXPECT_EQ(expected.dropped, lane.dropped);
    EXPECT_EQ(expected.duplicates, lane.duplicates);
  }

  // Not listening: every receive is a pure drop in any order.
  ReceiveLane deaf = fresh();
  deaf.listening = 0;
  commit_all(deaf);
  EXPECT_EQ(deaf.dropped, tranche.size());
  for (double slot : deaf.inline_arrivals) EXPECT_NE(slot, slot);
}

}  // namespace
}  // namespace ftgcs::core
