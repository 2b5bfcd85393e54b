// Sharded conservative-parallel execution of ONE FT-GCS run.
//
// The sweep runner parallelizes across scenario tasks; this backend
// parallelizes inside a single large run. The cluster graph is striped
// into T shards (par/partition.h); each shard owns a full FtGcsSystem
// instance scoped to its clusters — its own Simulator + EventQueue,
// Network, NodeTable slice and worker thread — and all shards advance in
// lock-step safe windows of width
//
//     W = min_cut_delay = min over cut edges of (d − u),
//
// the paper's minimum message delay. Inside a window [B, B + W) every
// shard drains its queue locally (pure-receive pulse runs still batch
// through the pop_run channel); a delivery crossing the cut is appended,
// with its sampled arrival time, to the source→destination SPSC mailbox.
// Any such arrival is ≥ B + W, i.e. in a later window, so shards cannot
// affect each other mid-window; at the barrier each shard merges its
// inbound mailboxes in deterministic (time, sender, sender-seq) order and
// seeds them into its queue before the next window.
//
// Determinism is a hard invariant, not best-effort: construction forks
// node RNGs by id, channel streams per directed edge, and drift draws per
// node index — all partition-invariant — so every node's execution, and
// therefore the scenario tables, are bit-identical to the single-threaded
// engine for every T (pinned by tests/test_par_shards.cpp). The one
// boundary: two *distinct* senders whose pulses reach the same node at
// exactly the same instant are ordered (sender, seq) here but global-FIFO
// in the single simulator; with continuously-sampled channel delays such
// cross-sender ties do not occur.
//
// When the plan degenerates (T ≤ 1 after clamping, or a zero lookahead)
// callers must fall back to the ordinary FtGcsSystem — see
// ShardPlan::degenerate().
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "byz/fault_plan.h"
#include "clocks/drift_model.h"
#include "core/ftgcs_system.h"
#include "core/node_table.h"
#include "core/params.h"
#include "net/graph.h"
#include "par/mailbox.h"
#include "par/partition.h"
#include "sim/backend.h"
#include "sim/event_queue.h"
#include "sim/time_types.h"
#include "support/stat_table.h"

namespace ftgcs::trace {
class TraceCollector;
}

namespace ftgcs::obs {
class PhaseProfiler;
struct ShardWindowDiag;
}  // namespace ftgcs::obs

namespace ftgcs::par {

class ShardedFtGcsSystem {
 public:
  struct Config {
    core::Params params;
    std::uint64_t seed = 1;
    /// Unread; benchmark/ftgcs_e2e.cpp still sets it (see sim/backend.h).
    sim::QueueBackend engine = sim::QueueBackend::kLadder;
    bool enable_global_module = true;
    bool replicas_know_offsets = true;
    byz::FaultPlan fault_plan;
    std::vector<int> cluster_round_offsets;
    /// Requested shard count; the effective count after clamping is
    /// ShardPlan-driven (see num_shards()). Must be ≥ 2 — a degenerate
    /// plan belongs on the single-simulator engine, which the caller
    /// selects via make_shard_plan() BEFORE constructing this.
    int shards = 2;
    /// Optional pre-computed plan for this exact (graph, params.k,
    /// shards) triple — callers that already probed make_shard_plan()
    /// for degeneracy (exp::run_ftgcs) pass it in so construction does
    /// not redo the O(nodes + edges) cut census. Leave default
    /// (num_shards == 1) to have the constructor compute it.
    ShardPlan plan;
    /// Builds one drift model per shard. Called T times; every copy MUST
    /// be identically seeded (the copies replay the same per-node-index
    /// draws; each shard applies only its own nodes' rates). nullptr →
    /// the system default (deterministically spread constant drift).
    std::function<std::unique_ptr<clocks::DriftModel>()> drift_factory;
    /// Trace capture: each shard's Network gets collector->shard_sink(s)
    /// installed (deliveries fire exactly once, on the destination's
    /// owner shard, so the merged trace is byte-identical to an unsharded
    /// run). Owned by the caller, must outlive the system; the caller
    /// commits at quiesced probe boundaries. nullptr = tracing off.
    trace::TraceCollector* trace = nullptr;
    /// Shared immutable topology (see core::FtGcsSystem::Config): when
    /// set, neither the driver nor any shard builds its own augmented
    /// topology — all T + 1 consumers bind to this one. Must outlive the
    /// system. When unset the driver builds one copy and shares it with
    /// every shard (still one build total, not T).
    const net::AugmentedTopology* shared_topo = nullptr;
    /// Wall-clock phase profiler (the same null-branch pattern as
    /// `trace`): when set, each worker accumulates merge / run /
    /// barrier-wait time into its own shard slot and the driver stamps a
    /// "windows" span around the lock-step loop. Owned by the caller,
    /// must outlive the system; profiler-off cost is one branch per
    /// phase. All clock reads happen inside obs/phase_profiler.cpp —
    /// this file stays clock-free for the determinism lint.
    obs::PhaseProfiler* profiler = nullptr;
  };

  /// Partition diagnostics of one sharded run: deterministic, but they
  /// depend on the shard count, so they stay out of the metric tables.
  /// The defaults describe an unsharded run.
  struct ShardStats {
    int shards = 0;  ///< effective shard count (0 = single simulator)
    std::size_t cut_edges = 0;  ///< directed node edges crossing the cut
    /// Conservative lookahead (d − u); +inf (absent) when unsharded.
    double min_cut_delay = std::numeric_limits<double>::infinity();
    std::uint64_t windows = 0;       ///< safe windows executed
    std::size_t mailbox_peak = 0;    ///< max entries merged at one barrier

    /// Field table (support/stat_table.h): the `--timing` footer's shards
    /// line, headed by the shard count.
    static constexpr auto fields() {
      using enum support::Agg;
      using enum support::Plane;
      using S = ShardStats;
      return std::array{
          field<&S::shards>("shards", kMax, kEngine, "shards"),
          field<&S::cut_edges>("cut_edges", kMax, kEngine, "shards"),
          field<&S::min_cut_delay>("min_cut_delay", kMin, kEngine, "shards",
                                   "%g"),
          field<&S::windows>("windows", kSum, kEngine, "shards"),
          field<&S::mailbox_peak>("mailbox_peak", kMax, kEngine, "shards")};
    }
  };

  ShardedFtGcsSystem(net::Graph cluster_graph, Config config);
  ~ShardedFtGcsSystem();

  ShardedFtGcsSystem(const ShardedFtGcsSystem&) = delete;
  ShardedFtGcsSystem& operator=(const ShardedFtGcsSystem&) = delete;

  /// Starts every shard at the global time-0 initialization.
  void start();

  /// Advances every shard to exactly `t` through lock-step safe windows.
  void run_until(sim::Time t);

  /// Pins every shard's warmed-up capacity profile (see
  /// core::FtGcsSystem::prewarm). Call from the driver thread between
  /// windows — it touches shard state, so no phase may be in flight.
  void prewarm() {
    for (auto& shard : shards_) shard->prewarm();
  }

  sim::Time now() const { return now_; }
  int num_shards() const { return plan_.num_shards; }
  const ShardPlan& plan() const { return plan_; }
  const net::AugmentedTopology& topology() const { return *topo_; }
  const core::Params& params() const { return shards_.front()->params(); }

  /// Merged ground-truth snapshot (each node read from its owner shard).
  void snapshot_columns(core::SystemColumns& out) const;

  bool is_correct(int id) const { return owner(id).is_correct(id); }
  core::FtGcsNode& node(int id) { return owner(id).node(id); }
  const core::FtGcsNode& node(int id) const { return owner(id).node(id); }

  // ---- aggregated counters (single-simulator-equivalent totals) -------------
  /// Events the single-simulator engine would have fired: the sum over
  /// shards, minus the duplicate drift ticks of the per-shard model
  /// copies (every shard replays the same tick schedule).
  std::uint64_t fired_events() const;
  std::uint64_t messages_sent() const;
  std::uint64_t total_violations() const;
  /// Queue-tier diagnostics merged over the coexisting shards.
  sim::EventQueue::TierStats queue_stats() const;
  ShardStats shard_stats() const;

  /// Per-shard diagnostics for the profiler's "diag" rows (cut-edge
  /// arrivals merged, deepest single-barrier merge, events fired). Call
  /// from the driver at a quiesced boundary (workers parked).
  void shard_window_diag(std::vector<obs::ShardWindowDiag>& out) const;

 private:
  class Router;

  core::FtGcsSystem& owner(int id) {
    return *shards_[static_cast<std::size_t>(
        plan_.node_owner[static_cast<std::size_t>(id)])];
  }
  const core::FtGcsSystem& owner(int id) const {
    return *shards_[static_cast<std::size_t>(
        plan_.node_owner[static_cast<std::size_t>(id)])];
  }

  /// One lock-step phase: every worker merges its inbound mailboxes into
  /// its queue, then runs its simulator to `bound` (inclusive).
  void phase(sim::Time bound);
  void worker_loop(int shard);

  /// The ONE augmented topology of the whole run (built here unless
  /// Config::shared_topo supplied it); every shard borrows it. Declared
  /// before shards_ so it outlives them (and their queues' in-flight
  /// broadcast groups).
  std::unique_ptr<net::AugmentedTopology> owned_topo_;
  const net::AugmentedTopology* topo_ = nullptr;
  ShardPlan plan_;
  std::unique_ptr<MailboxGrid> mailboxes_;
  std::vector<std::unique_ptr<Router>> routers_;      // one per shard
  std::vector<std::unique_ptr<core::FtGcsSystem>> shards_;
  std::vector<std::int32_t> first_node_;  ///< contiguous owned id ranges
  double window_ = 0.0;                   ///< safe-window width (0 = ∞)

  // ---- worker coordination (barrier-phased; see worker_loop) ----------------
  std::vector<std::thread> workers_;
  struct Phases;                       // two std::barrier phases
  std::unique_ptr<Phases> phases_;
  sim::Time bound_ = 0.0;              ///< driver → workers: run target
  bool stop_ = false;                  ///< driver → workers: shut down
  std::vector<std::vector<RemoteEvent>> merge_scratch_;  // per shard
  std::vector<std::size_t> mailbox_peak_;                // per shard
  std::vector<std::uint64_t> routed_in_;  ///< cut arrivals merged, per shard
  obs::PhaseProfiler* profiler_ = nullptr;

  sim::Time now_ = sim::kTimeZero;
  std::uint64_t windows_ = 0;
  mutable core::SystemColumns snapshot_scratch_;
};

}  // namespace ftgcs::par
