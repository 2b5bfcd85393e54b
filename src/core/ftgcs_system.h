// System builder: instantiates the full FT-GCS stack on an augmented graph
// — simulator, network, correct nodes, Byzantine nodes, drift — and exposes
// ground-truth state to metrics and experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "byz/fault_plan.h"
#include "byz/strategy.h"
#include "clocks/drift_model.h"
#include "core/ftgcs_node.h"
#include "core/node_table.h"
#include "core/params.h"
#include "net/augmented.h"
#include "net/graph.h"
#include "net/network.h"
#include "sim/backend.h"
#include "sim/simulator.h"

namespace ftgcs::trace {
class TraceSink;
}

namespace ftgcs::core {

/// Ground-truth state of every node at one instant.
struct SystemSnapshot {
  struct NodeState {
    int id = -1;
    int cluster = -1;
    bool correct = true;
    double logical = 0.0;
    int gamma = 0;
  };
  sim::Time at = 0.0;
  std::vector<NodeState> nodes;
};

class FtGcsSystem {
 public:
  /// Shard scoping for the conservative-parallel backend (src/par/): the
  /// system instantiates ONLY the nodes of clusters owned by `shard` and
  /// diverts deliveries to non-owned destinations through `router`
  /// (net::ShardRouter) instead of its own simulator. Clusters are never
  /// split — intra-cluster traffic, the Byzantine reference-round wiring
  /// and the quorum lanes all stay shard-local; only inter-cluster (cut)
  /// edges cross. All other construction (topology, RNG forks per node
  /// id, drift draws per node index) is performed identically to an
  /// unsharded system, which is what makes per-node executions
  /// partition-invariant. `cluster_owner` and `router` are owned by the
  /// sharded driver and must outlive the system.
  struct ShardView {
    int shard = 0;
    int num_shards = 1;
    const std::int32_t* cluster_owner = nullptr;  ///< size num_clusters
    net::ShardRouter* router = nullptr;
    bool active() const { return num_shards > 1; }
  };

  struct Config {
    Params params;
    std::uint64_t seed = 1;
    bool enable_global_module = true;
    /// Unread; benchmark/ftgcs_e2e.cpp still sets it (see sim/backend.h).
    sim::QueueBackend engine = sim::QueueBackend::kLadder;
    /// nullptr → UniformDelay(d, U).
    std::unique_ptr<net::DelayModel> delay_model;
    /// nullptr → ConstantDrift(ρ, seed, spread over envelope).
    std::unique_ptr<clocks::DriftModel> drift_model;
    byz::FaultPlan fault_plan;

    /// Initial logical offset of each cluster, in whole rounds (cluster c
    /// starts at L = cluster_round_offsets[c]·T). Empty = all zero.
    /// Models the skew-absorption scenario ("newly inserted edges" in the
    /// dynamic-graph initialization of the paper).
    std::vector<int> cluster_round_offsets;
    /// If true, replicas start pre-aligned with the observed cluster's
    /// offset (the paper's flooding-based initialization establishes the
    /// estimates); if false, estimates start at 0 and must converge.
    bool replicas_know_offsets = true;

    /// Dynamic topology: cluster edges that start INACTIVE — physically
    /// present (pulses flow, replicas listen) but not considered by the
    /// triggers until activated (paper App. A / [9, 10]).
    std::vector<std::pair<int, int>> initially_inactive_edges;

    /// Heterogeneous edges (paper footnote 1): per-cluster-edge weight
    /// multiplying (κ, δ) on that edge — e.g. a WAN link whose estimate
    /// accuracy ε_e is 3× worse gets weight 3. Unlisted edges weigh 1.
    std::vector<std::tuple<int, int, double>> edge_weights;

    /// Shard scoping; default = unsharded (every cluster owned).
    ShardView shard;

    /// Shared immutable topology: when set, the system binds to this
    /// augmented topology (and its adjacency) by reference instead of
    /// building its own from `cluster_graph` — the sharded driver builds
    /// the O(E) structure ONCE and every shard reuses it, killing the
    /// O(T·E) per-shard setup term. Must have been built from the same
    /// cluster graph and params.k, and must outlive the system; the
    /// `cluster_graph` constructor argument is ignored when set.
    const net::AugmentedTopology* shared_topo = nullptr;

    /// Observability: mirror every fired pulse delivery to this sink
    /// (trace::TraceCollector::shard_sink). Owned by the caller, must
    /// outlive the system; nullptr = tracing off (one dead branch per
    /// delivery).
    trace::TraceSink* trace_sink = nullptr;
  };

  FtGcsSystem(net::Graph cluster_graph, Config config);

  /// Installs drift and starts every node at time 0.
  void start();

  void run_until(sim::Time t) { sim_.run_until(t); }

  /// Pins the warmed-up capacity profile of every lazily-grown runtime
  /// structure (queue bucket lanes, quorum windows) so that subsequent
  /// steady-state run_until windows perform zero allocations — the
  /// contract tests/test_alloc_guard.cpp asserts. Call after a few rounds
  /// of representative traffic; opt-in (costs memory proportional to the
  /// warmed high-water marks).
  void prewarm() {
    sim_.prewarm();
    table_.prewarm();
  }

  // ---- access ---------------------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  const net::AugmentedTopology& topology() const { return topo_; }
  const Params& params() const { return config_.params; }

  bool is_correct(int node) const { return nodes_[node] != nullptr; }
  FtGcsNode& node(int id);
  const FtGcsNode& node(int id) const;

  /// True iff this system instantiated node `id` (always true unsharded).
  bool owns(int id) const {
    const ShardView& view = config_.shard;
    return !view.active() ||
           view.cluster_owner[topo_.cluster_of(id)] == view.shard;
  }

  /// Drift events fired by this system's (per-shard) drift-model copy —
  /// the sharded driver subtracts the duplicate copies' fires so the
  /// reported event total matches the single-simulator engine.
  std::uint64_t drift_ticks_fired() const {
    return drift_ ? drift_->ticks_fired() : 0;
  }

  /// The columnar per-node state bank backing the flat dispatch path.
  const NodeTable& node_table() const { return table_; }
  NodeTable& node_table() { return table_; }

  int num_correct() const { return num_correct_; }

  /// L_v(now) for a correct node.
  double node_logical(int id) const;

  /// Cluster clock L_C = (L⁺ + L⁻)/2 over correct members (Def. 3.3).
  /// Returns nullopt if the cluster has no correct member.
  std::optional<double> cluster_clock(int cluster) const;

  SystemSnapshot snapshot() const;

  /// Columnar snapshot into a caller-owned buffer (reused across probes).
  void snapshot_columns(SystemColumns& out) const;

  /// Sum of proper-execution violations over all correct nodes.
  std::uint64_t total_violations() const;

  // ---- dynamic topology ------------------------------------------------
  /// Immediately (de)activates the consideration of cluster edge {b, c}
  /// on every correct member of both clusters. Models the outcome of the
  /// consensus the paper prescribes for consistent edge activation.
  void set_edge_active(int b, int c, bool active);

  /// Schedules set_edge_active(b, c, active) at absolute time `at`.
  void schedule_edge_toggle(int b, int c, bool active, sim::Time at);

 private:
  /// Built only when Config::shared_topo is unset; topo_ is the single
  /// access path either way. Declared first so everything that borrows
  /// from the topology (network adjacency, node tables, in-flight
  /// broadcast groups in the queue) is destroyed before it.
  std::unique_ptr<net::AugmentedTopology> owned_topo_;
  const net::AugmentedTopology& topo_;
  Config config_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<FtGcsNode>> nodes_;  // null for faulty ids
  std::vector<std::unique_ptr<byz::ByzantineNode>> byz_nodes_;
  NodeTable table_;  ///< columnar hot state; adopts the nodes' lanes
  std::unique_ptr<clocks::DriftModel> drift_;
  std::vector<std::uint8_t> remote_flags_;  ///< per node; sharded mode only
  int num_correct_ = 0;
  bool started_ = false;
};

}  // namespace ftgcs::core
