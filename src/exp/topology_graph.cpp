#include "exp/topology_graph.h"

namespace ftgcs::exp {

TopologyGraph build_topology_graph(const net::AugmentedTopology& topo,
                                   const net::DelayModel& delays) {
  TopologyGraph graph;
  graph.topo = &topo;
  graph.min_delay = delays.min_delay();
  graph.max_delay = delays.max_delay();
  return graph;
}

}  // namespace ftgcs::exp
