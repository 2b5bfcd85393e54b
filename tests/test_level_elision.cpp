// Level elision (core/node_table.h): App. C level deliveries proven dead
// at send time skip the event queue and fire from the simulator's
// DeadRing. Every elided delivery is re-checked when it fires
// (NodeTable::check_elided, always on), so these runs pass only if the
// send-time proof held for every one of them — under crash-stop faults
// (the floor saturates while deliveries are in flight), two-faced
// Byzantine members, and hardware rates that jump between 1 and 1+ρ.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "byz/fault_plan.h"
#include "clocks/drift_model.h"
#include "core/ftgcs_system.h"
#include "net/augmented.h"
#include "net/graph.h"
#include "par/sharded_system.h"

namespace ftgcs {
namespace {

core::Params practical() {
  return core::Params::practical(1e-3, 1.0, 0.01, 1);
}

/// Every node flips between h = 1 and h = 1+ρ every T/3, half of them in
/// antiphase.
std::unique_ptr<clocks::DriftModel> flipping_drift(const core::Params& params,
                                                   int nodes, int rounds) {
  std::vector<double> initial;
  std::vector<clocks::ScheduledDrift::Change> script;
  const double fast = 1.0 + params.rho;
  for (int v = 0; v < nodes; ++v) initial.push_back(v % 2 == 0 ? 1.0 : fast);
  for (int step = 1; step <= 3 * rounds; ++step) {
    for (int v = 0; v < nodes; ++v) {
      const bool high = (v + step) % 2 == 0;
      script.push_back({step * params.T / 3.0, static_cast<std::size_t>(v),
                        high ? 1.0 : fast});
    }
  }
  return std::make_unique<clocks::ScheduledDrift>(std::move(initial),
                                                  std::move(script));
}

struct Case {
  const char* name;
  net::Graph graph;
};

class LevelElisionSoundness : public ::testing::TestWithParam<int> {};

TEST_P(LevelElisionSoundness, ElidedDeliveriesArePureOnArrival) {
  const core::Params params = practical();
  const int rounds = 10;
  // In the clique every cluster borders the other shard at 2 shards: each
  // sender routes some deliveries off-shard and elides local ones.
  for (const Case& c : {Case{"ring", net::Graph::ring(8)},
                        Case{"torus", net::Graph::torus(3, 5)},
                        Case{"clique", net::Graph::clique(4)}}) {
    SCOPED_TRACE(c.name);
    const net::AugmentedTopology topo(c.graph, params.k);
    ASSERT_LE(topo.num_nodes(), 64);
    const byz::FaultPlan plan = byz::FaultPlan::uniform(
        topo, 1, byz::StrategyKind::kTwoFaced, 3.0 * params.E, /*seed=*/31);
    // One correct member of cluster 1 crashes mid-run.
    int victim = -1;
    for (int member : topo.members(1)) {
      if (!plan.contains(member)) {
        victim = member;
        break;
      }
    }
    ASSERT_GE(victim, 0);
    const int nodes = topo.num_nodes();

    net::Network::DeliveryStats stats;
    std::uint64_t events = 0;
    if (GetParam() == 1) {
      core::FtGcsSystem::Config config;
      config.params = params;
      config.seed = 9;
      config.fault_plan = plan;
      config.drift_model = flipping_drift(params, nodes, rounds);
      core::FtGcsSystem system(c.graph, std::move(config));
      system.node(victim).crash_at(4.4 * params.T);
      system.start();
      system.run_until(rounds * params.T);
      EXPECT_TRUE(system.node(victim).crashed());
      stats = system.network().delivery_stats();
      events = system.simulator().fired_events();
    } else {
      par::ShardedFtGcsSystem::Config config;
      config.params = params;
      config.seed = 9;
      config.fault_plan = plan;
      config.shards = GetParam();
      config.drift_factory = [&] {
        return flipping_drift(params, nodes, rounds);
      };
      par::ShardedFtGcsSystem system(c.graph, std::move(config));
      ASSERT_EQ(system.num_shards(), GetParam());
      system.start();
      system.node(victim).crash_at(4.4 * params.T);
      system.run_until(rounds * params.T);
      EXPECT_TRUE(system.node(victim).crashed());
      stats = system.delivery_stats();
      events = system.fired_events();
    }
    EXPECT_GT(stats.elided, 0u);
    EXPECT_LT(stats.elided, stats.level);
    EXPECT_GT(events, stats.total());
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, LevelElisionSoundness,
                         ::testing::Values(1, 2));

TEST(LevelElision, ShardingChangesOnlyWhatIsElided) {
  // Elision is a queue-routing choice: the fired events and the delivery
  // counts per kind are the same at every shard count; only the elided
  // share moves (a delivery routed to another shard is never elided).
  const core::Params params = practical();
  const net::Graph graph = net::Graph::ring(8);
  core::FtGcsSystem::Config single_config;
  single_config.params = params;
  single_config.seed = 3;
  core::FtGcsSystem single(graph, std::move(single_config));
  par::ShardedFtGcsSystem::Config sharded_config;
  sharded_config.params = params;
  sharded_config.seed = 3;
  sharded_config.shards = 2;
  par::ShardedFtGcsSystem sharded(graph, std::move(sharded_config));
  single.start();
  sharded.start();
  single.run_until(6.0 * params.T);
  sharded.run_until(6.0 * params.T);
  const net::Network::DeliveryStats a = single.network().delivery_stats();
  const net::Network::DeliveryStats b = sharded.delivery_stats();
  EXPECT_EQ(single.simulator().fired_events(), sharded.fired_events());
  EXPECT_EQ(a.cluster, b.cluster);
  EXPECT_EQ(a.level, b.level);
  EXPECT_GT(a.elided, b.elided);
  EXPECT_GT(b.elided, 0u);
}

TEST(LevelElision, LoopbacksAreDeadAndByzantineDestinationsNever) {
  const core::Params params = practical();
  const net::AugmentedTopology topo(net::Graph::line(2), params.k);
  byz::FaultPlan plan;
  const int byzantine = topo.node(0, 1);
  plan.add({byzantine, byz::StrategyKind::kTwoFaced, 3.0 * params.E});
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 4;
  config.fault_plan = plan;
  core::FtGcsSystem system(net::Graph::line(2), std::move(config));
  system.start();
  system.run_until(3.0 * params.T);

  core::NodeTable& table = system.node_table();
  const int sender = topo.node(0, 0);
  const std::vector<int>& neighbors = topo.adjacency()[sender];
  const std::size_t count = neighbors.size() + 1;
  const std::vector<sim::Duration> delays(count, params.d);
  std::vector<std::uint8_t> dead(count, 7);
  const sim::Time now = system.simulator().now();

  // A level far ahead of everyone: only the loopback is dead.
  EXPECT_EQ(table.mark_dead_levels(sender, 1 << 20, now, delays.data(),
                                   count, neighbors.data(), dead.data()),
            1u);
  EXPECT_EQ(dead[0], 1);
  for (std::size_t i = 1; i < count; ++i) EXPECT_EQ(dead[i], 0) << i;

  // A level below every floor: dead everywhere but at the Byzantine node.
  table.mark_dead_levels(sender, -1, now, delays.data(), count,
                         neighbors.data(), dead.data());
  EXPECT_EQ(dead[0], 1);
  for (std::size_t i = 1; i < count; ++i) {
    EXPECT_EQ(dead[i], neighbors[i - 1] == byzantine ? 0 : 1) << i;
  }

  // A Byzantine node's own loopback keeps its ordinary delivery.
  const std::vector<int>& byz_neighbors = topo.adjacency()[byzantine];
  dead.assign(byz_neighbors.size() + 1, 7);
  const std::vector<sim::Duration> byz_delays(dead.size(), params.d);
  table.mark_dead_levels(byzantine, -1, now, byz_delays.data(), dead.size(),
                         byz_neighbors.data(), dead.data());
  EXPECT_EQ(dead[0], 0);
}

// The elision proof needs M_v to grow at ≥ 1/(1+ρ), i.e. h ≥ 1 (paper §2:
// h ∈ [1, 1+ρ]). A drift model that leaves the envelope is a contract
// failure at the FT-GCS rate sink, not a silently weaker proof.
TEST(LevelElisionDeathTest, RateSinkRejectsRatesOutsideTheModel) {
  const core::Params params = practical();
  const auto run_with_rate = [&](double rate) {
    const net::AugmentedTopology topo(net::Graph::line(1), params.k);
    std::vector<double> initial(static_cast<std::size_t>(topo.num_nodes()),
                                1.0);
    std::vector<clocks::ScheduledDrift::Change> script = {
        {params.T, 0, rate}};
    core::FtGcsSystem::Config config;
    config.params = params;
    config.drift_model = std::make_unique<clocks::ScheduledDrift>(
        std::move(initial), std::move(script));
    core::FtGcsSystem system(net::Graph::line(1), std::move(config));
    system.start();
    system.run_until(2.0 * params.T);
  };
  run_with_rate(1.0 + params.rho);  // the envelope's edges are legal
  run_with_rate(1.0);
  EXPECT_DEATH(run_with_rate(1.0 - 1e-9), "precondition");
  EXPECT_DEATH(run_with_rate(1.0 + 2.0 * params.rho), "precondition");
}

}  // namespace
}  // namespace ftgcs
