// The resolved physical topology as one reusable value: node-level
// adjacency plus the channel's message-delay envelope.
//
// The shard partitioner reads it to find spatial cuts and the
// conservative lookahead (min over cut edges of the MINIMUM delay — the
// paper's d − u > 0, which is exactly the safe-window width a conservative
// parallel simulator needs), and the invariant monitor and the metrics
// sampler walk its adjacency.
//
// The graph borrows the AugmentedTopology it was built from instead of
// copying its O(E) neighbor lists: the topology must outlive the graph
// and every consumer holding a copy of it. A run builds it once.
#pragma once

#include <vector>

#include "net/augmented.h"
#include "net/channel.h"

namespace ftgcs::exp {

struct TopologyGraph {
  const net::AugmentedTopology* topo = nullptr;  ///< borrowed

  /// Channel delay envelope: every message is in transit for a time in
  /// [min_delay, max_delay] (the paper's [d − u, d]).
  double min_delay = 0.0;
  double max_delay = 0.0;

  int num_nodes() const { return topo->num_nodes(); }
  int num_clusters() const { return topo->num_clusters(); }
  int cluster_of(int node) const { return topo->cluster_of(node); }
  /// Neighbors of `node` in the augmented graph (no self-loops; the
  /// network layer adds loopback on broadcast).
  const std::vector<int>& neighbors(int node) const {
    return topo->adjacency()[static_cast<std::size_t>(node)];
  }
};

/// Builds the graph over `topo` (borrowed) and the run's delay envelope.
TopologyGraph build_topology_graph(const net::AugmentedTopology& topo,
                                   const net::DelayModel& delays);

}  // namespace ftgcs::exp
