// The zero-allocation contract, proven at runtime: after warmup, a
// steady-state run_until window performs ZERO global allocations — on
// both queue backends and under the sharded backend's worker threads.
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

#include <memory>
#include <vector>

#include "core/ftgcs_system.h"
#include "core/params.h"
#include "net/graph.h"
#include "par/sharded_system.h"
#include "sim/backend.h"
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

void expect_zero_alloc_steady_state(sim::QueueBackend engine) {
  const core::Params params = test_params();
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 11;
  config.engine = engine;
  core::FtGcsSystem system(net::Graph::ring(8), std::move(config));
  system.start();
  system.run_until(kWarmupRounds * params.T);
  system.prewarm();

  const support::ScopedAllocGuard guard;
  for (int round = 1; round <= kGuardedRounds; ++round) {
    system.run_until((kWarmupRounds + round) * params.T);
  }
  EXPECT_EQ(guard.allocations(), 0u)
      << "steady-state run_until allocated on the "
      << (engine == sim::QueueBackend::kLadder ? "ladder" : "heap")
      << " backend";
}

TEST(AllocGuard, SteadyStateRunUntilIsAllocationFreeLadder) {
  expect_zero_alloc_steady_state(sim::QueueBackend::kLadder);
}

TEST(AllocGuard, SteadyStateRunUntilIsAllocationFreeHeap) {
  expect_zero_alloc_steady_state(sim::QueueBackend::kHeap);
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
  system.start();
  system.run_until(kWarmupRounds * params.T);
  system.prewarm();

  const support::ScopedAllocGuard guard;
  for (int round = 1; round <= kGuardedRounds; ++round) {
    system.run_until((kWarmupRounds + round) * params.T);
  }
  EXPECT_EQ(guard.allocations(), 0u)
      << "steady-state sharded run_until allocated (shards=2)";
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
