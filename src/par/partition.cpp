#include "par/partition.h"

#include <algorithm>

#include "sim/time_types.h"
#include "support/assert.h"

namespace ftgcs::par {

ShardPlan make_shard_plan(const exp::TopologyGraph& graph, int shards) {
  FTGCS_EXPECTS(graph.num_clusters() > 0);
  ShardPlan plan;
  plan.num_shards = std::max(1, std::min(shards, graph.num_clusters()));
  if (plan.num_shards <= 1) {
    plan.num_shards = 1;
    return plan;
  }

  // Balanced contiguous stripes over cluster ids: cluster c goes to shard
  // ⌊c·T/C⌋ (every shard owns ⌈C/T⌉ or ⌊C/T⌋ consecutive clusters).
  const int clusters = graph.num_clusters();
  const int t = plan.num_shards;
  plan.cluster_owner.resize(static_cast<std::size_t>(clusters));
  for (int c = 0; c < clusters; ++c) {
    plan.cluster_owner[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(
        (static_cast<long long>(c) * t) / clusters);
  }
  plan.node_owner.resize(static_cast<std::size_t>(graph.num_nodes()));
  for (int id = 0; id < graph.num_nodes(); ++id) {
    plan.node_owner[static_cast<std::size_t>(id)] =
        plan.cluster_owner[static_cast<std::size_t>(graph.cluster_of(id))];
  }

  // Cut census over directed node-level edges. Every edge has the same
  // minimum delay, so any cut edge sets the conservative lookahead.
  bool any_cut = false;
  for (int from = 0; from < graph.num_nodes(); ++from) {
    const std::int32_t owner = plan.node_owner[static_cast<std::size_t>(from)];
    for (const int to : graph.neighbors(from)) {
      if (plan.node_owner[static_cast<std::size_t>(to)] == owner) continue;
      plan.cut_edges += 1;
      any_cut = true;
    }
  }
  plan.min_cut_delay = any_cut ? graph.min_delay : 0.0;

  // The window the backend actually uses is min_cut_delay − kTimeEps (the
  // delivery path admits that much slack below the channel minimum), so a
  // lookahead at or below the epsilon is as degenerate as zero.
  if (any_cut && plan.min_cut_delay <= sim::kTimeEps) {
    // Degenerate lookahead (u ≥ d): no conservative window exists.
    plan.num_shards = 1;
    plan.cluster_owner.clear();
    plan.node_owner.clear();
    plan.cut_edges = 0;
    plan.min_cut_delay = 0.0;
  }
  return plan;
}

}  // namespace ftgcs::par
