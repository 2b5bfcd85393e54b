// System builder for the plain-GCS baseline, with optional Byzantine
// "pump" faults that advertise diverging clock values to different
// neighbors — the attack that breaks the non-fault-tolerant algorithm.
#pragma once

#include <memory>
#include <vector>

#include "clocks/drift_model.h"
#include "gcs/gcs_node.h"
#include "net/graph.h"
#include "net/network.h"
#include "sim/backend.h"
#include "sim/simulator.h"

namespace ftgcs::gcs {

class GcsSystem final : public sim::EventSink {
 public:
  struct Config {
    GcsParams params;
    std::uint64_t seed = 1;
    /// Unread; benchmark/ftgcs_e2e.cpp still sets it (see sim/backend.h).
    sim::QueueBackend engine = sim::QueueBackend::kLadder;
    std::unique_ptr<net::DelayModel> delay_model;   ///< null → Uniform
    std::unique_ptr<clocks::DriftModel> drift_model;///< null → spread const
    /// Byzantine pump nodes: each advertises L−offset(t) to lower-id
    /// neighbors and L+offset(t) to higher-id ones, with offset growing at
    /// `pump_rate` per unit time (0 = honest value, still faulty-silent
    /// about triggers).
    std::vector<int> pump_nodes;
    double pump_rate = 0.0;
  };

  GcsSystem(net::Graph graph, Config config);

  void start();
  void run_until(sim::Time t) { sim_.run_until(t); }

  sim::Simulator& simulator() { return sim_; }
  const net::Graph& graph() const { return graph_; }

  bool is_correct(int node) const { return nodes_[node] != nullptr; }
  double node_logical(int id) const;

  /// Max |L_v − L_w| over graph edges between correct nodes.
  double local_skew() const;
  /// Max |L_v − L_w| over all correct pairs.
  double global_skew() const;

  /// EventSink: pump-node tick (kTimer, payload.a = node).
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

 private:
  void pump_tick(int node);

  net::Graph graph_;
  Config config_;
  sim::Simulator sim_;
  sim::SinkId self_ = sim::kInvalidSink;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<GcsNode>> nodes_;  // null for faulty ids
  std::unique_ptr<clocks::DriftModel> drift_;
};

}  // namespace ftgcs::gcs
