// The "simplistic approach" of the paper's introduction: a fault-tolerant
// master/slave hierarchy of clusters built on pulse echo.
//
// Clusters form a BFS tree over the cluster graph. The root cluster runs
// Lynch–Welch (Algorithm 1, reusing core::ClusterSyncEngine) and emits one
// pulse per member per round. A node in a non-root cluster at depth ℓ
// counts the pulses of its parent cluster's members; when the (f+1)-th
// distinct member delivers its w-th pulse (so at least one correct member
// reached round w), the node fires "wave" w:
//
//   * steps its logical clock to (w−1)·T + τ1 + ℓ·(d − U/2) — the root's
//     pulse value compensated by the expected cumulative hop delay, and
//   * immediately echoes a pulse of its own, which its children count.
//
// Tolerates f Byzantine members per cluster (f faulty parents cannot fire
// a wave on their own, nor suppress the (f+1)-th correct arrival).
// Global skew is O(depth · (U + ρ·d)); but the correction wave travels one
// cluster-hop per message delay, so — exactly as the paper argues — a
// distributed skew ramp gets compressed onto the wavefront edge
// (experiment E5).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "byz/fault_plan.h"
#include "byz/strategy.h"
#include "clocks/drift_model.h"
#include "clocks/logical_clock.h"
#include "core/cluster_sync.h"
#include "core/params.h"
#include "net/augmented.h"
#include "net/graph.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ftgcs::baselines {

/// Non-root member: echoes its parent cluster's pulse waves.
class EchoClusterNode final : public net::PulseSink {
 public:
  EchoClusterNode(sim::Simulator& simulator, net::Network& network,
                  const net::AugmentedTopology& topo,
                  const core::Params& params, int node_id, int parent_cluster,
                  int depth, double initial_logical);

  void on_pulse(const net::Pulse& pulse, sim::Time now) override;
  void set_hardware_rate(sim::Time now, double rate) {
    clock_.set_hardware_rate(now, rate);
  }

  double logical(sim::Time now) const { return clock_.read(now); }

 private:
  void fire_wave(int wave, sim::Time now);

  sim::Simulator& sim_;
  net::Network& net_;
  const net::AugmentedTopology& topo_;
  core::Params params_;
  int id_;
  int parent_cluster_;
  int depth_;

  clocks::LogicalClock clock_;
  std::vector<int> parent_counts_;   ///< pulses seen per parent member
  std::map<int, int> wave_hits_;     ///< wave -> distinct members arrived
  int wave_fired_ = 0;
};

class ClusterTreeSystem {
 public:
  struct Config {
    core::Params params;
    std::uint64_t seed = 1;
    int root_cluster = 0;
    std::unique_ptr<net::DelayModel> delay_model;
    std::unique_ptr<clocks::DriftModel> drift_model;
    byz::FaultPlan fault_plan;
    std::vector<int> cluster_round_offsets;  ///< whole rounds, per cluster
  };

  ClusterTreeSystem(net::Graph cluster_graph, Config config);

  void start();
  void run_until(sim::Time t) { sim_.run_until(t); }

  sim::Simulator& simulator() { return sim_; }
  const net::AugmentedTopology& topology() const { return topo_; }

  bool is_correct(int node) const;
  double node_logical(int id) const;
  std::optional<double> cluster_clock(int cluster) const;

  /// Max |L_B − L_C| over cluster edges (cluster clocks, correct members).
  double cluster_local_skew() const;
  double cluster_global_skew() const;
  std::uint64_t total_violations() const;

 private:
  net::AugmentedTopology topo_;
  Config config_;
  core::ClusterSyncConfig root_sync_;  ///< borrowed by the root engines
  std::vector<int> cluster_depth_;
  std::vector<int> cluster_parent_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  /// Root-cluster members run Algorithm 1; others echo. Entries are
  /// mutually exclusive; both null for Byzantine ids.
  std::vector<std::unique_ptr<core::ClusterSyncEngine>> root_members_;
  std::vector<std::unique_ptr<core::ClusterMemberSink>> root_sinks_;
  std::vector<std::unique_ptr<core::PulseBroadcaster>> root_hooks_;
  std::vector<std::unique_ptr<EchoClusterNode>> echo_members_;
  std::vector<std::unique_ptr<byz::ByzantineNode>> byz_nodes_;
  std::unique_ptr<clocks::DriftModel> drift_;
};

}  // namespace ftgcs::baselines
