// The zero-allocation contract, proven at runtime: after warmup, a
// steady-state run_until window performs ZERO global allocations — on
// one simulator and under the sharded backend's worker threads.
// The same counter also pins geometric growth of the trace capture
// buffers.
//
// This is the runtime twin of the ftgcs-lint no-hot-path-alloc rule: the
// lint bans allocation constructs inside the annotated hot functions at
// the source level; this test proves the property end-to-end, including
// everything the lint cannot see (vector regrowth past warmed capacity,
// allocator traffic inside library calls, per-window scratch churn).
//
// Linking note: constructing a ScopedAllocGuard pulls
// src/support/alloc_guard.cpp out of the static archive, which installs
// the counting operator new/delete set for this whole binary. The counter
// is process-wide across threads — exactly what the --shards case needs,
// since the interesting allocations would happen on worker threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "byz/fault_plan.h"
#include "byz/strategies.h"
#include "core/ftgcs_system.h"
#include "core/params.h"
#include "exp/topology_graph.h"
#include "net/augmented.h"
#include "net/channel.h"
#include "net/graph.h"
#include "par/partition.h"
#include "par/sharded_system.h"
#include "sim/event.h"
#include "support/alloc_guard.h"
#include "trace/collector.h"

namespace ftgcs {
namespace {

// Warmup gives every lazily-grown structure a representative high-water
// mark — queue buckets, receive lanes, mailboxes, the ladder's first
// reseed cycles. prewarm() then PINS that profile: it levels the bucket
// lanes and quorum windows to margin-over-high-water, which is what
// makes the zero contract exact rather than asymptotic (each reseed
// re-derives the window from the drifting population, so without the pin
// the same traffic keeps landing in cold buckets and ramping them up).
constexpr int kWarmupRounds = 10;
constexpr int kGuardedRounds = 8;

core::Params test_params() {
  return core::Params::practical(1e-3, 1.0, 0.01, 1);
}

TEST(AllocGuard, HookCountsThisBinarysAllocations) {
  const support::ScopedAllocGuard guard;
  auto owned = std::make_unique<int>(7);
  ASSERT_NE(owned, nullptr);
  std::vector<double> grow(1024, 0.5);
  EXPECT_GE(guard.allocations(), 2u);
}

// Warms up `system`, pins its profile, and counts the allocations of the
// guarded rounds.
template <typename System>
std::uint64_t guarded_allocations(System& system, const core::Params& params) {
  system.start();
  system.run_until(kWarmupRounds * params.T);
  system.prewarm();
  const support::ScopedAllocGuard guard;
  for (int round = 1; round <= kGuardedRounds; ++round) {
    system.run_until((kWarmupRounds + round) * params.T);
  }
  return guard.allocations();
}

TEST(AllocGuard, SteadyStateRunUntilIsAllocationFree) {
  const core::Params params = test_params();
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 11;
  core::FtGcsSystem system(net::Graph::ring(8), std::move(config));
  EXPECT_EQ(guarded_allocations(system, params), 0u)
      << "steady-state run_until allocated";
}

// The sharded backend: two worker threads, SPSC mailbox traffic across
// the cut, barrier-phased safe windows. After warmup the mailbox boxes,
// merge scratch, and per-shard queues have all reached peak capacity, so
// whole windows — including every cross-shard divert and merge — must
// allocate nothing on any thread.
TEST(AllocGuard, SteadyStateShardedRunIsAllocationFree) {
  const core::Params params = test_params();
  par::ShardedFtGcsSystem::Config config;
  config.params = params;
  config.seed = 11;
  config.shards = 2;
  par::ShardedFtGcsSystem system(net::Graph::ring(8), std::move(config));
  ASSERT_EQ(system.num_shards(), 2);
  EXPECT_EQ(guarded_allocations(system, params), 0u)
      << "steady-state sharded run_until allocated (shards=2)";
}

// The same contract under faults: f = 1 Byzantine member per cluster,
// every strategy, on one simulator and at shards = 2. Adversarial sends
// (timed unicasts, chosen-delay unicasts, noise pulses) are typed events
// to the faulty node's own sink, so they allocate no more than correct
// traffic does.
TEST(AllocGuard, SteadyStateByzantineRunIsAllocationFree) {
  const core::Params params = test_params();
  const net::AugmentedTopology topo(net::Graph::ring(8), params.k);
  const struct {
    byz::StrategyKind kind;
    double param;
  } strategies[] = {
      {byz::StrategyKind::kSilent, 0.0},
      {byz::StrategyKind::kRandomPulser, 0.7},
      {byz::StrategyKind::kTwoFaced, 0.2},
      {byz::StrategyKind::kClockLiar, 50.0},
      {byz::StrategyKind::kSkewPump, 0.3},
      {byz::StrategyKind::kEquivocator, 0.4},
      {byz::StrategyKind::kWindowEdge, 0.2},
      {byz::StrategyKind::kDelayJitter, 0.0},
  };
  for (const auto& [kind, param] : strategies) {
    const byz::FaultPlan plan =
        byz::FaultPlan::uniform(topo, 1, kind, param, 5);
    {
      core::FtGcsSystem::Config config;
      config.params = params;
      config.seed = 11;
      config.fault_plan = plan;
      core::FtGcsSystem system(net::Graph::ring(8), std::move(config));
      EXPECT_EQ(guarded_allocations(system, params), 0u)
          << byz::strategy_name(kind) << ": steady-state run_until allocated";
    }
    {
      par::ShardedFtGcsSystem::Config config;
      config.params = params;
      config.seed = 11;
      config.shards = 2;
      config.fault_plan = plan;
      par::ShardedFtGcsSystem system(net::Graph::ring(8), std::move(config));
      ASSERT_EQ(system.num_shards(), 2);
      EXPECT_EQ(guarded_allocations(system, params), 0u)
          << byz::strategy_name(kind)
          << ": steady-state sharded run_until allocated (shards=2)";
    }
  }
}

// Construction allocates a handful of blocks per node: the node itself,
// one block for all its replicas, and its small per-edge vectors. The
// engines inside take nothing of their own — no receive lane (the
// NodeTable's lanes are adopted before first use), no sort buffer, no
// hook closures — and the node, table and network arrays amortize over
// the system, as does the network's flat delay-stream table. The system is
// large_torus at clusters=64 (8 × 8 torus, 256 nodes); its topology is
// built outside the guard. It reads 5 per node (15 while every engine
// owned its lane, sort buffer and replica block; 6 while the network kept
// one stream vector per node).
constexpr std::uint64_t kConstructionAllocationsPerNode = 5;

TEST(AllocGuard, SystemConstructionAllocationsPerNode) {
  const core::Params params = test_params();
  net::Graph graph = net::Graph::torus(8, 8);
  const net::AugmentedTopology topo(graph, params.k);
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 1;
  config.shared_topo = &topo;

  const support::ScopedAllocGuard guard;
  const core::FtGcsSystem system(std::move(graph), std::move(config));
  const std::uint64_t per_node =
      guard.allocations() / static_cast<std::uint64_t>(topo.num_nodes());
  EXPECT_LE(per_node, kConstructionAllocationsPerNode)
      << guard.allocations() << " allocations for " << topo.num_nodes()
      << " nodes";
}

// Sharding must not multiply the per-node construction cost: each shard
// builds only its own nodes, and its network keeps delay streams only for
// the senders it owns, so four shards together stay within the unsharded
// bound (the mailboxes and worker threads amortize). Topology and shard
// plan are built outside the guard, as exp::run_ftgcs builds them before
// it constructs the system.
TEST(AllocGuard, ShardedConstructionAllocationsPerNode) {
  const core::Params params = test_params();
  net::Graph graph = net::Graph::torus(8, 8);
  const net::AugmentedTopology topo(graph, params.k);
  par::ShardedFtGcsSystem::Config config;
  config.params = params;
  config.seed = 1;
  config.shards = 4;
  config.shared_topo = &topo;
  config.plan = par::make_shard_plan(
      exp::build_topology_graph(
          topo, net::UniformDelay(params.d, params.U)),
      config.shards);

  const support::ScopedAllocGuard guard;
  const par::ShardedFtGcsSystem system(std::move(graph), std::move(config));
  ASSERT_EQ(system.num_shards(), 4);
  const std::uint64_t per_node =
      guard.allocations() / static_cast<std::uint64_t>(topo.num_nodes());
  EXPECT_LE(per_node, kConstructionAllocationsPerNode)
      << guard.allocations() << " allocations for " << topo.num_nodes()
      << " nodes on " << system.num_shards() << " shards";
}

// The same bound when the sharded system computes its own plan: its cut
// census borrows the topology's adjacency instead of copying it.
TEST(AllocGuard, ShardedConstructionWithoutPlanAllocationsPerNode) {
  const core::Params params = test_params();
  net::Graph graph = net::Graph::torus(8, 8);
  const net::AugmentedTopology topo(graph, params.k);
  par::ShardedFtGcsSystem::Config config;
  config.params = params;
  config.seed = 1;
  config.shards = 4;
  config.shared_topo = &topo;

  const support::ScopedAllocGuard guard;
  const par::ShardedFtGcsSystem system(std::move(graph), std::move(config));
  ASSERT_EQ(system.num_shards(), 4);
  const std::uint64_t per_node =
      guard.allocations() / static_cast<std::uint64_t>(topo.num_nodes());
  EXPECT_LE(per_node, kConstructionAllocationsPerNode)
      << guard.allocations() << " allocations for " << topo.num_nodes()
      << " nodes on " << system.num_shards() << " shards";
}

// Trace capture buffers must grow geometrically: an exact per-batch
// reserve(size + n) would reallocate — and copy the whole buffer — on
// every batch, making long traced runs quadratic. 20k batches of 4
// deliveries may only cost O(log n) reallocations.
TEST(AllocGuard, TraceCaptureBufferGrowsGeometrically) {
  trace::TraceCollector collector(testing::TempDir() + "/growth.ftr");
  trace::TraceSink* sink = collector.shard_sink(0);
  std::vector<sim::BatchedEvent> batch(4);
  double now = 0.0;

  const support::ScopedAllocGuard guard;
  for (int i = 0; i < 20000; ++i) {
    for (sim::BatchedEvent& event : batch) {
      now += 1e-3;
      event.at = now;
    }
    sink->on_delivery_batch(batch.data(), batch.size());
  }
  EXPECT_LT(guard.allocations(), 64u);
}

}  // namespace
}  // namespace ftgcs
