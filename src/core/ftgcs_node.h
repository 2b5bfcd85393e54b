// One correct node of the FT-GCS system: the composition of
//
//   * an active ClusterSync engine (Algorithm 1) for its own cluster,
//   * a passive replica per adjacent cluster (the estimates L̃, Cor. 3.5),
//   * the InterclusterSync mode policy (Algorithm 2) evaluated at every
//     round start,
//   * optionally the global-skew module (Appendix C).
//
// All clocks of one node run at its one hardware rate; drift models push
// rate changes through set_hardware_rate().
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/cluster_sync.h"
#include "core/estimates.h"
#include "core/global_skew.h"
#include "core/intercluster.h"
#include "core/params.h"
#include "net/augmented.h"
#include "net/network.h"
#include "sim/rng.h"

namespace ftgcs::core {

class NodeTable;

/// What every node of one system shares: the parameters and the engine
/// and estimator constants derived from them. Built once per system and
/// held by reference — it must outlive every node built from it.
struct NodeConstants {
  /// `topo` sizes unit_weights (its largest cluster degree).
  NodeConstants(const Params& p, const net::AugmentedTopology& topo);
  NodeConstants(const NodeConstants&) = delete;
  NodeConstants& operator=(const NodeConstants&) = delete;

  Params params;
  ClusterSyncConfig sync;     ///< the own engine's and every replica's
  MaxEstimator::Config level; ///< App. C estimator
  /// All-ones edge weights, one per adjacent cluster of the best-connected
  /// cluster: the trigger weights of every node without edge weights.
  std::vector<double> unit_weights;
};

struct FtGcsNodeOptions {
  bool enable_global_module = true;

  /// Initial round of the node's own cluster (logical offset in whole
  /// rounds; see ClusterSyncConfig::start_round).
  int start_round = 1;

  /// Initial rounds of the adjacent clusters' replicas, parallel to
  /// AugmentedTopology::cluster_neighbors(cluster). Empty = all start at
  /// round 1 (estimates must converge on their own).
  std::vector<int> replica_start_rounds;

  /// Adjacent clusters whose edge starts INACTIVE (dynamic-topology mode,
  /// paper App. A / [9,10]): the replica still listens, but its estimate
  /// does not participate in the trigger evaluation until activated.
  std::vector<int> initially_inactive;

  /// Per-edge weight multipliers on (κ, δ), parallel to
  /// AugmentedTopology::cluster_neighbors(cluster) — the heterogeneous
  /// setting of paper footnote 1 ("κ proportional to ε_e"). Empty = all 1
  /// (uniform triggers).
  std::vector<double> edge_weights;
};

/// Receives nothing itself: every delivery to a correct node goes to the
/// system's NodeTable (core/node_table.h), which writes the node's receive
/// lanes and calls its MaxEstimator.
class FtGcsNode final : public sim::EventSink, private ClusterSyncHooks {
 public:
  using Options = FtGcsNodeOptions;

  /// `constants` is borrowed (see NodeConstants); `options` is read only
  /// here.
  FtGcsNode(sim::Simulator& simulator, net::Network& network,
            const net::AugmentedTopology& topo,
            const NodeConstants& constants, int node_id, sim::Rng rng,
            const Options& options = {});

  FtGcsNode(const FtGcsNode&) = delete;
  FtGcsNode& operator=(const FtGcsNode&) = delete;

  /// Starts engine, replicas, and (if enabled) the max estimator at the
  /// global time-0 initialization.
  void start();

  /// Typed simulator events: scheduled crash / transient-fault injection.
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

  /// Drift-model sink.
  void set_hardware_rate(sim::Time now, double rate);

  /// Benign crash: from time t on the node is STOPPED — the table drops
  /// its deliveries, its engine, replica, and max-estimator timers are
  /// cancelled, and it neither sends nor processes anything again
  /// (equivalent, for the rest of the system, to removing its links — see
  /// the paper's discussion of crash faults).
  void crash_at(sim::Time t);
  bool crashed() const { return crashed_; }

  /// Binds the node to the system's columnar table (after the table
  /// adopted the node's lanes): γ decisions and the kMaxLevel staleness
  /// floor write through so the table classifies and snapshots without
  /// touching the node.
  void attach_table(NodeTable* table);

  /// Fault injection (tests/experiments): transiently corrupts the
  /// node's logical clock by `offset` at time t (see
  /// ClusterSyncEngine::inject_transient_fault).
  void inject_transient_fault_at(sim::Time t, double offset);

  /// Dynamic topology (paper App. A): toggles whether the estimate of
  /// adjacent cluster `cluster` participates in the trigger evaluation.
  /// The replica keeps listening either way, so re-activation is
  /// immediate. In the paper, adjacent clusters agree on the switch time
  /// by consensus; we model the agreed outcome by invoking this at the
  /// same instant on all members (see FtGcsSystem::set_edge_active).
  void set_edge_active(int cluster, bool active);
  bool edge_active(int cluster) const;

  // ---- state access (ground truth for metrics) ----------------------------
  int id() const { return id_; }
  int cluster() const { return cluster_; }
  double logical(sim::Time now) const { return engine_.clock().read(now); }
  int gamma() const { return engine_.clock().gamma(); }
  int round() const { return engine_.round(); }
  double max_estimate(sim::Time now) const;
  /// The App. C estimator; null without the global module.
  MaxEstimator* max_estimator() {
    return max_estimator_ ? &*max_estimator_ : nullptr;
  }

  const ClusterSyncEngine& engine() const { return engine_; }
  ClusterSyncEngine& engine() { return engine_; }
  const EstimateBank& estimates() const { return estimates_; }
  EstimateBank& estimates() { return estimates_; }

  std::uint64_t violations() const {
    return engine_.violations() + estimates_.violations();
  }

  /// Mode decisions taken so far, per reason (indexed by ModeReason).
  const std::array<std::uint64_t, 4>& mode_counts() const {
    return mode_counts_;
  }

  /// Observation hook for the adversary/metrics: invoked at each round
  /// start with the node's schedule (see byz::RoundInfo rationale).
  std::function<void(int round, sim::Time round_start,
                     sim::Time predicted_pulse, double logical_round_start)>
      on_round_observed;

 private:
  /// ClusterSyncHooks of the own engine: Algorithm 2 at each round start,
  /// the physical broadcast at each pulse instant.
  void on_round_start(int round) override;
  void on_pulse_instant(int /*round*/, sim::Time /*now*/) override {
    broadcast(net::PulseKind::kClusterPulse, 0);
  }

  /// Broadcasts the node's own pulse of `kind` (nothing once crashed).
  void broadcast(net::PulseKind kind, int level);

  const Params& params() const { return constants_.params; }

  sim::Simulator& sim_;
  net::Network& net_;
  const NodeConstants& constants_;
  int id_;
  int cluster_;
  sim::SinkId self_ = sim::kInvalidSink;
  NodeTable* table_ = nullptr;  ///< columnar mirror (null outside a system)

  ClusterSyncEngine engine_;
  EstimateBank estimates_;
  InterclusterController controller_;
  /// Inline (not heap-allocated): the level-pulse receive is one of the
  /// hottest per-node paths, and keeping the estimator on the node's own
  /// cache lines removes a pointer chase per non-stale level pulse.
  std::optional<MaxEstimator> max_estimator_;

  bool crashed_ = false;
  std::array<std::uint64_t, 4> mode_counts_{};
  /// Parallel to estimates_.clusters(): edge considered by the triggers?
  std::vector<bool> edge_active_;
  /// Per-edge weights (footnote 1), parallel to estimates_.clusters();
  /// empty = all 1, read from NodeConstants::unit_weights.
  std::vector<double> edge_weights_;
  /// Scratch buffers of on_round_start (one trigger evaluation per
  /// round per node — reusing them keeps the round path allocation-free):
  /// the active edges' estimates and, with edge weights, their weights.
  std::vector<double> round_ests_;
  std::vector<double> round_weights_;
};
static_assert(sizeof(FtGcsNode) == 816);

}  // namespace ftgcs::core
