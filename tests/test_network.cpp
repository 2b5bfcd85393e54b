// Network dispatch: delivery to all neighbors + loopback, delay bounds,
// Byzantine delay control, message accounting; delay-model properties.
#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "net/augmented.h"
#include "net/channel.h"
#include "net/graph.h"

namespace ftgcs::net {
namespace {

/// Appends every delivery to `log` as (sender, arrival time).
struct Inbox final : PulseSink {
  std::vector<std::pair<int, sim::Time>>* log = nullptr;
  void on_pulse(const Pulse& p, sim::Time t) override {
    log->emplace_back(p.sender, t);
  }
};

struct Counter final : PulseSink {
  int count = 0;
  void on_pulse(const Pulse&, sim::Time) override { ++count; }
};

struct Fixture {
  sim::Simulator sim;
  Network network;
  std::map<int, std::vector<std::pair<int, sim::Time>>> received;
  std::vector<Inbox> inboxes;

  explicit Fixture(const Graph& g, std::unique_ptr<DelayModel> delays =
                                       nullptr)
      : network(sim, g.adjacency(),
                delays ? std::move(delays)
                       : std::make_unique<UniformDelay>(1.0, 0.2),
                sim::Rng(5)) {
    inboxes.resize(static_cast<std::size_t>(g.num_vertices()));
    for (int v = 0; v < g.num_vertices(); ++v) {
      inboxes[v].log = &received[v];
      network.register_handler(v, &inboxes[v]);
    }
  }
};

TEST(Network, BroadcastReachesAllNeighborsAndSelf) {
  Fixture fx(Graph::star(4));  // hub 0 with leaves 1..3
  Pulse pulse;
  pulse.sender = 0;
  fx.network.broadcast(0, pulse);
  fx.sim.run_until(2.0);
  EXPECT_EQ(fx.received[0].size(), 1u);  // loopback
  for (int leaf = 1; leaf <= 3; ++leaf) {
    ASSERT_EQ(fx.received[leaf].size(), 1u);
    EXPECT_EQ(fx.received[leaf][0].first, 0);
  }
}

TEST(Network, LeafBroadcastOnlyReachesHubAndSelf) {
  Fixture fx(Graph::star(4));
  Pulse pulse;
  pulse.sender = 2;
  fx.network.broadcast(2, pulse);
  fx.sim.run_until(2.0);
  EXPECT_EQ(fx.received[0].size(), 1u);
  EXPECT_EQ(fx.received[2].size(), 1u);
  EXPECT_TRUE(fx.received[1].empty());
  EXPECT_TRUE(fx.received[3].empty());
}

TEST(Network, DeliveryTimesRespectDelayBounds) {
  Fixture fx(Graph::clique(5));
  for (int round = 0; round < 20; ++round) {
    Pulse pulse;
    pulse.sender = round % 5;
    fx.network.broadcast(pulse.sender, pulse);
  }
  fx.sim.run_until(10.0);
  for (const auto& [node, pulses] : fx.received) {
    for (const auto& [sender, at] : pulses) {
      // All sends happened at t=0.
      EXPECT_GE(at, 0.8 - 1e-12);
      EXPECT_LE(at, 1.0 + 1e-12);
    }
  }
}

TEST(Network, UnicastDeliversOnlyToTarget) {
  Fixture fx(Graph::clique(4));
  Pulse pulse;
  pulse.sender = 0;
  fx.network.unicast(0, 2, pulse);
  fx.sim.run_until(2.0);
  EXPECT_EQ(fx.received[2].size(), 1u);
  EXPECT_TRUE(fx.received[1].empty());
  EXPECT_TRUE(fx.received[3].empty());
  EXPECT_TRUE(fx.received[0].empty());  // unicast has no loopback
}

TEST(Network, ByzantineDelayControlWithinBounds) {
  Fixture fx(Graph::line(2));
  Pulse pulse;
  pulse.sender = 0;
  fx.network.unicast_with_delay(0, 1, pulse, 0.8);  // min delay
  fx.sim.run_until(2.0);
  ASSERT_EQ(fx.received[1].size(), 1u);
  EXPECT_DOUBLE_EQ(fx.received[1][0].second, 0.8);
}

TEST(Network, UnicastSenderCannotBeForged) {
  // Links identify their sender (paper §2): a pulse naming another node
  // as its sender is a contract failure on both unicast paths, as on
  // broadcast.
  Fixture fx(Graph::clique(3));
  Pulse forged;
  forged.sender = 1;
  EXPECT_DEATH(fx.network.unicast(0, 2, forged), "pulse.sender == from");
  EXPECT_DEATH(fx.network.unicast_with_delay(0, 2, forged, 0.9),
               "pulse.sender == from");
  EXPECT_DEATH(fx.network.broadcast(0, forged), "pulse.sender == from");
}

TEST(Network, MessageCountersTrack) {
  Fixture fx(Graph::clique(3));
  Pulse pulse;
  pulse.sender = 0;
  fx.network.broadcast(0, pulse);  // self + 2 neighbors = 3 messages
  fx.sim.run_until(2.0);
  EXPECT_EQ(fx.network.messages_sent(), 3u);
  EXPECT_EQ(fx.network.messages_delivered(), 3u);
}

TEST(Network, AreNeighborsMatchesGraph) {
  Fixture fx(Graph::line(3));
  EXPECT_TRUE(fx.network.are_neighbors(0, 1));
  EXPECT_FALSE(fx.network.are_neighbors(0, 2));
}

TEST(DelayModels, UniformWithinBounds) {
  UniformDelay model(2.0, 0.5);
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double delay = model.sample(0, 1, rng);
    EXPECT_GE(delay, 1.5);
    EXPECT_LE(delay, 2.0);
  }
}

TEST(DelayModels, FixedIsDeterministic) {
  FixedDelay model(2.0, 0.5, 0.5);
  sim::Rng rng(1);
  EXPECT_DOUBLE_EQ(model.sample(0, 1, rng), 1.75);
  FixedDelay max_model(2.0, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(max_model.sample(0, 1, rng), 2.0);
  FixedDelay min_model(2.0, 0.5, 0.0);
  EXPECT_DOUBLE_EQ(min_model.sample(0, 1, rng), 1.5);
}

TEST(DelayModels, TwoPointOnlyExtremes) {
  TwoPointDelay model(1.0, 0.3);
  sim::Rng rng(2);
  int lo = 0, hi = 0;
  for (int i = 0; i < 1000; ++i) {
    const double delay = model.sample(0, 1, rng);
    if (delay == 0.7) ++lo;
    else if (delay == 1.0) ++hi;
    else FAIL() << "unexpected delay " << delay;
  }
  EXPECT_GT(lo, 400);
  EXPECT_GT(hi, 400);
}

TEST(DelayModels, DirectionalBias) {
  DirectionalDelay model(1.0, 0.3);
  sim::Rng rng(3);
  EXPECT_DOUBLE_EQ(model.sample(2, 5, rng), 1.0);
  EXPECT_DOUBLE_EQ(model.sample(5, 2, rng), 0.7);
}

TEST(Network, WorksOnAugmentedTopology) {
  const AugmentedTopology topo(Graph::line(2), 4);
  Fixture fx(Graph::line(1));  // placeholder; build real one below
  sim::Simulator sim;
  Network network(sim, topo.adjacency(),
                  std::make_unique<UniformDelay>(1.0, 0.1), sim::Rng(9));
  std::vector<Counter> sinks(static_cast<std::size_t>(topo.num_nodes()));
  for (int v = 0; v < topo.num_nodes(); ++v) {
    network.register_handler(v, &sinks[v]);
  }
  Pulse pulse;
  pulse.sender = 0;  // member 0 of cluster 0
  network.broadcast(0, pulse);
  sim.run_until(2.0);
  // Reaches self + 3 cluster peers + 4 members of cluster 1.
  int total = 0;
  for (const Counter& sink : sinks) total += sink.count;
  EXPECT_EQ(total, 8);
  EXPECT_EQ(sinks[0].count, 1);
  EXPECT_EQ(sinks[7].count, 1);
}

// ---- level elision ----------------------------------------------------------

/// Cluster-pulse table that proves every level delivery to an owned
/// destination dead (`remote`, if set, flags the unowned ones — a shard's
/// table never marks those).
struct MarkAllTable final : ClusterPulseTable {
  const std::uint8_t* remote = nullptr;
  int mark_calls = 0;
  std::vector<sim::BatchedEvent> received;
  void on_pulse_run(const sim::BatchedEvent* events, std::size_t n) override {
    received.insert(received.end(), events, events + n);
  }
  void on_delivery(const sim::EventPayload& payload, sim::Time now) override {
    received.push_back({now, payload});
  }
  std::size_t mark_dead_levels(int sender, int, sim::Time,
                               const sim::Duration*, std::size_t count,
                               const std::int32_t* rest_dests,
                               std::uint8_t* dead) override {
    ++mark_calls;
    std::size_t marked = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const int dest = i == 0 ? sender : rest_dests[i - 1];
      dead[i] = remote == nullptr || remote[dest] == 0 ? 1 : 0;
      marked += dead[i];
    }
    return marked;
  }
};

struct RemoteLog final : ShardRouter {
  std::vector<int> dests;
  void remote_deliver(int, sim::Time, const sim::EventPayload& payload)
      override {
    dests.push_back(payload.c);
  }
};

bool accept_all(const sim::EventPayload&, const void*) { return true; }

TEST(Network, LevelElisionRoutesRemoteAndElidesLocal) {
  // Line 0 - 1 - 2 with node 2 on another shard: sender 0 is interior,
  // sender 1 owns the cut edge. Both broadcast through one coalesced
  // group; the boundary sender's delivery to 2 goes to the router and is
  // skipped in the group, and its local level deliveries are elided.
  sim::Simulator sim;
  Network network(sim, Graph::line(3).adjacency(),
                  std::make_unique<UniformDelay>(1.0, 0.2), sim::Rng(5));
  const std::vector<std::uint8_t> remote = {0, 0, 1};
  MarkAllTable table;
  table.remote = remote.data();
  const std::vector<std::uint8_t> fast(3, 1);
  network.set_cluster_dispatch(&table, fast.data());
  sim.set_batch_channel(network.sink_id(), sim::EventKind::kPulse,
                        &accept_all, nullptr);
  ASSERT_TRUE(network.enable_level_elision());
  RemoteLog router;
  network.set_shard_router(&router, remote.data());

  Pulse cluster;
  cluster.sender = 0;
  network.broadcast(0, cluster);  // cluster pulses are never marked
  cluster.sender = 1;
  network.broadcast(1, cluster);  // boundary: 2 routed, 2 in the group
  EXPECT_EQ(table.mark_calls, 0);
  EXPECT_EQ(router.dests, (std::vector<int>{2}));
  Pulse level;
  level.kind = PulseKind::kMaxLevel;
  level.level = 3;
  level.sender = 0;
  network.broadcast(0, level);  // interior: both deliveries elided
  EXPECT_EQ(table.mark_calls, 1);
  level.sender = 1;
  network.broadcast(1, level);  // boundary: 1 routed, 2 elided
  EXPECT_EQ(table.mark_calls, 2);
  EXPECT_EQ(router.dests, (std::vector<int>{2, 2}));

  const sim::EventQueue::TierStats queue = sim.queue_stats();
  EXPECT_EQ(queue.narrow_events, 4u);  // the two cluster pulses' groups
  EXPECT_EQ(queue.wide_events, 0u);
  EXPECT_EQ(queue.group_inserts, 2u);  // all-elided groups take no record
  EXPECT_EQ(network.messages_sent(), 10u);
  EXPECT_EQ(network.delivery_stats().elided, 4u);

  sim.run_until(2.0);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.fired_events(), 8u);  // all but the two routed ones
  EXPECT_EQ(network.messages_delivered(), 8u);
  const Network::DeliveryStats stats = network.delivery_stats();
  EXPECT_EQ(stats.cluster, 4u);
  EXPECT_EQ(stats.level, 4u);
  EXPECT_EQ(table.received.size(), 4u);  // the elided four are only counted
}

TEST(Network, SkippedDeliveriesKeepTheirSeqs) {
  // A boundary sender's group skips the routed delivery but keeps its seq:
  // the local deliveries fire in the same (time, seq) order, with the same
  // arrival times, as the unsharded group's slice of those destinations.
  struct Recorder final : PulseSink {
    int node = 0;
    std::vector<std::pair<sim::Time, int>>* log = nullptr;
    void on_pulse(const Pulse&, sim::Time now) override {
      log->emplace_back(now, node);
    }
  };
  const auto fire_order = [](const std::uint8_t* remote) {
    sim::Simulator sim;
    Network network(sim, Graph::ring(4).adjacency(),
                    std::make_unique<UniformDelay>(1.0, 0.2), sim::Rng(7));
    std::vector<std::pair<sim::Time, int>> order;
    std::vector<Recorder> sinks(4);
    for (int v = 0; v < 4; ++v) {
      sinks[v].node = v;
      sinks[v].log = &order;
      network.register_handler(v, &sinks[v]);
    }
    RemoteLog router;
    if (remote != nullptr) network.set_shard_router(&router, remote);
    Pulse pulse;
    for (int sender : {0, 1, 2, 0}) {
      pulse.sender = sender;
      network.broadcast(sender, pulse);
    }
    sim.run_until(2.0);
    return order;
  };
  const std::vector<std::uint8_t> remote = {0, 0, 0, 1};
  std::vector<std::pair<sim::Time, int>> local;
  for (const auto& entry : fire_order(nullptr)) {
    if (remote[static_cast<std::size_t>(entry.second)] == 0) {
      local.push_back(entry);
    }
  }
  EXPECT_EQ(fire_order(remote.data()), local);
  EXPECT_EQ(local.size(), 9u);
}

}  // namespace
}  // namespace ftgcs::net
