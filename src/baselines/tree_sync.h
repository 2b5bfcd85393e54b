// Node-level master/slave tree synchronization (pulse echo) — the classic
// baseline the paper's introduction argues against.
//
// A BFS tree is rooted at node 0. The root's logical clock free-runs on
// its hardware clock and the root emits a timestamped sync pulse every
// `share_period`. A non-root node, upon receiving the pulse echoed by its
// parent, *steps* its clock to the received value plus the expected
// one-hop delay and immediately echoes the pulse (with its new clock
// value) to its children. Between pulses clocks free-run.
//
// This achieves global skew O(depth · per-hop error) but offers no local
// skew guarantee: the correction wave propagates one hop per message
// delay, so a node at the wavefront has already absorbed the full
// upstream correction while its child has absorbed none — compressing the
// global skew onto a single edge (cf. [15] and the paper's introduction:
// a pulse propagating through a line with equally distributed global skew
// "will compress the full global skew onto a single edge"). Experiment E5
// reproduces exactly this.
#pragma once

#include <memory>
#include <vector>

#include "clocks/drift_model.h"
#include "clocks/hardware_clock.h"
#include "clocks/logical_clock.h"
#include "net/graph.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ftgcs::baselines {

class TreeSyncSystem final : public sim::EventSink {
 public:
  struct Config {
    double rho = 0.0;
    double d = 0.0;
    double U = 0.0;
    double share_period = 0.0;  ///< Newtonian period between shares
    std::uint64_t seed = 1;
    int root = 0;
    std::unique_ptr<net::DelayModel> delay_model;    ///< null → Uniform
    std::unique_ptr<clocks::DriftModel> drift_model; ///< null → spread const
    /// Initial logical clock values (one per node; empty = all zero).
    /// Used to set up a distributed skew the tree must absorb.
    std::vector<double> initial_logical;
  };

  TreeSyncSystem(net::Graph graph, Config config);

  void start();
  void run_until(sim::Time t) { sim_.run_until(t); }

  sim::Simulator& simulator() { return sim_; }
  const net::Graph& graph() const { return graph_; }
  int parent_of(int node) const { return parent_[node]; }

  double node_logical(int id) const;
  /// Max |L_v − L_w| over graph edges.
  double local_skew() const;
  double global_skew() const;

  /// sim::EventSink: a share tick fires (kTimer; a = sharing node).
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

 private:
  /// One node's clocks; also its network sink, forwarding to the system.
  struct Node final : net::PulseSink {
    TreeSyncSystem& system;
    int id;
    clocks::HardwareClock hardware;
    clocks::LogicalClock logical;
    Node(TreeSyncSystem& owner, int node_id, sim::Time t0, double l0)
        : system(owner),
          id(node_id),
          hardware(t0, 0.0, 1.0),
          logical(0.0, 0.0, 1.0, t0, l0) {}
    void on_pulse(const net::Pulse& pulse, sim::Time now) override {
      system.on_pulse(id, pulse, now);
    }
  };

  void share_tick(int node);
  void on_pulse(int node, const net::Pulse& pulse, sim::Time now);

  net::Graph graph_;
  Config config_;
  std::vector<int> parent_;
  sim::Simulator sim_;
  sim::SinkId self_ = sim::kInvalidSink;  ///< share ticks
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<clocks::DriftModel> drift_;
};

}  // namespace ftgcs::baselines
