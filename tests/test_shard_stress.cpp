// High-contention shard stress: the TSan job's main workload, and a
// normal-suite determinism pin.
//
// The scenario is built to maximize cross-shard pressure per simulated
// second, the exact opposite of the benign spatial stripes the throughput
// benchmarks use:
//
//   * clique topology — every cluster pair is adjacent, so at T shards
//     ~ (T−1)/T of all inter-cluster traffic crosses a shard boundary and
//     funnels through net::ShardRouter into the SPSC mailboxes;
//   * delay uncertainty U at half the max delay d — min_cut_delay = d−U
//     shrinks to d/2, so safe windows are tiny and the three-barrier
//     phase machinery (publish bound → merge mailboxes → run → collect)
//     cycles hundreds of times per run;
//   * full Byzantine budget, two-faced strategy in every cluster — the
//     fault-heavy cut traffic exercises the per-(src,dst) sequence
//     stamping for adversarial senders too;
//   * trace capture ON — every delivery also rides the per-shard capture
//     buffers that the collector merges at quiesced probe boundaries.
//
// Under TSan this hammers every cross-thread edge of src/par/ and the
// trace collector; in the normal suite it pins the contract those edges
// must preserve: tables AND trace bytes bit-identical to --shards 1 at
// shards {2, 4, 8}, on both queue backends.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "exp/exp.h"
#include "sim/backend.h"

namespace ftgcs {
namespace {

using exp::AxisValue;
using exp::RunResult;
using exp::ScenarioSpec;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The high-contention spec described in the header comment.
ScenarioSpec stress_spec() {
  ScenarioSpec spec;
  spec.name = "shard_stress";
  spec.topology.kind = exp::TopologyKind::kClique;
  spec.topology.a = 8;  // 8 clusters, k = 3f+1 = 4 → 32 nodes
  spec.params.rho = 1e-3;
  spec.params.d = 1.0;
  spec.params.U = 0.5;  // min_cut_delay = d − U = 0.5: tiny safe windows
  spec.params.f = 1;
  spec.faults.mode = exp::FaultMode::kUniform;
  spec.faults.count = -1;  // full budget f in EVERY cluster
  spec.faults.strategy = byz::StrategyKind::kTwoFaced;
  spec.faults.param_times_E = 3.0;
  spec.horizon.base_rounds = 10.0;
  spec.probe_interval_rounds = 0.5;
  return spec;
}

RunResult run_stress(int shards, sim::QueueBackend engine,
                     const std::string& trace_path) {
  ScenarioSpec spec = stress_spec();
  spec.shards = shards;
  spec.engine = engine;
  spec.trace_path = trace_path;
  return run_point(spec, /*seed=*/3);
}

void expect_same_metrics(const RunResult& base, const RunResult& other,
                         const std::string& label) {
  ASSERT_EQ(base.metrics.size(), other.metrics.size()) << label;
  for (std::size_t m = 0; m < base.metrics.size(); ++m) {
    EXPECT_EQ(base.metrics[m].first, other.metrics[m].first) << label;
    EXPECT_EQ(base.metrics[m].second, other.metrics[m].second)
        << label << ": metric '" << base.metrics[m].first << "' differs";
  }
}

TEST(ShardStress, HighContentionCutTrafficBitIdenticalAcrossShards) {
  const std::string base_path = temp_path("stress_s1.ftr");
  const RunResult base =
      run_stress(1, sim::QueueBackend::kLadder, base_path);
  ASSERT_EQ(base.trace.files, 1u);
  ASSERT_GT(base.trace.records, 0.0);
  const std::string base_bytes = read_file(base_path);

  for (int shards : {2, 4, 8}) {
    const std::string path =
        temp_path("stress_s" + std::to_string(shards) + ".ftr");
    const RunResult result =
        run_stress(shards, sim::QueueBackend::kLadder, path);
    const std::string label = "shards=" + std::to_string(shards);

    // The run must actually have stressed the machinery it claims to:
    // a real multi-shard partition, boundary traffic through the router
    // mailboxes, and many tiny barrier-phased windows.
    EXPECT_EQ(result.shard.shards, shards) << label;
    EXPECT_GT(result.shard.cut_edges, 0.0) << label;
    EXPECT_GT(result.shard.mailbox_peak, 0.0) << label;
    EXPECT_GE(result.shard.windows, 50.0) << label;

    expect_same_metrics(base, result, label);
    EXPECT_EQ(base_bytes, read_file(path)) << label << ": trace bytes differ";
  }
}

// The heap backend drives the same mailbox/router/collector machinery
// through its per-delivery (non-coalesced) scheduling path; one shard
// count suffices since the engines are pinned equal elsewhere.
TEST(ShardStress, HighContentionHeapBackendMatches) {
  const std::string ladder_path = temp_path("stress_heap_base.ftr");
  const std::string heap_path = temp_path("stress_heap_s4.ftr");
  const RunResult base =
      run_stress(1, sim::QueueBackend::kLadder, ladder_path);
  const RunResult heap = run_stress(4, sim::QueueBackend::kHeap, heap_path);
  EXPECT_GT(heap.shard.mailbox_peak, 0.0);
  expect_same_metrics(base, heap, "heap shards=4");
  EXPECT_EQ(read_file(ladder_path), read_file(heap_path));
}

}  // namespace
}  // namespace ftgcs
