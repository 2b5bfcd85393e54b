// Quickstart: build a fault-tolerant gradient clock synchronization system
// on a line of clusters, inject one Byzantine node per cluster, run it,
// and inspect the skews against the paper's bounds.
//
//   ./quickstart [clusters] [seed]
//
// A malformed argument (clusters < 1, a non-integer) prints a message and
// exits 2.
#include <cstdio>
#include <stdexcept>

#include "byz/fault_plan.h"
#include "core/ftgcs_system.h"
#include "exp/scenario.h"
#include "metrics/skew_tracker.h"
#include "net/graph.h"

int main(int argc, char** argv) {
  using namespace ftgcs;

  int clusters = 8;
  std::uint64_t seed = 1;
  try {
    if (argc > 1) clusters = exp::parse_integer<int>("clusters", argv[1], 1);
    if (argc > 2) seed = exp::parse_integer<std::uint64_t>("seed", argv[2]);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr,
                 "quickstart: %s\nusage: quickstart [clusters] [seed]\n",
                 error.what());
    return 2;
  }

  // 1. Derive all protocol parameters from the model constants:
  //    hardware drift ρ, message delay d, delay uncertainty U, and the
  //    per-cluster fault budget f (cluster size k = 3f+1).
  const core::Params params =
      core::Params::practical(/*rho=*/1e-3, /*d=*/1.0, /*U=*/0.01, /*f=*/1);
  std::printf("=== parameters ===\n%s\n", params.summary().c_str());

  // 2. Describe the system: cluster graph, faults, delays, drift.
  net::Graph topology = net::Graph::line(clusters);
  net::AugmentedTopology augmented(topology, params.k);

  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = seed;
  // One two-faced Byzantine node in every cluster — the full budget f=1.
  config.fault_plan = byz::FaultPlan::uniform(
      augmented, params.f, byz::StrategyKind::kTwoFaced, params.E, seed);

  core::FtGcsSystem system(net::Graph::line(clusters), std::move(config));
  std::printf("augmented graph: %d clusters x %d nodes = %d nodes, %zu edges\n",
              clusters, params.k, system.topology().num_nodes(),
              system.topology().num_edges());
  std::printf("faulty nodes: %zu (two-faced)\n\n",
              system.topology().num_nodes() -
                  static_cast<std::size_t>(system.num_correct()));

  // 3. Attach a probe and run.
  metrics::SkewProbe probe(system, params.T / 2.0, 20.0 * params.T);
  probe.start();
  system.start();
  const double horizon = 100.0 * params.T;
  system.run_until(horizon);

  // 4. Report.
  std::printf("=== results after %.0f time units (%d rounds) ===\n", horizon,
              100);
  std::printf("steady-state max intra-cluster skew : %.6f  (bound 2*theta_g*E = %.6f)\n",
              probe.steady_max().intra_cluster,
              params.intra_cluster_skew_bound());
  std::printf("steady-state max adjacent-cluster   : %.6f  (kappa = %.6f)\n",
              probe.steady_max().cluster_local, params.kappa);
  std::printf("steady-state max global (clusters)  : %.6f\n",
              probe.steady_max().cluster_global);
  std::printf("proper-execution violations         : %llu\n",
              static_cast<unsigned long long>(system.total_violations()));
  std::printf("events simulated                    : %llu\n",
              static_cast<unsigned long long>(
                  system.simulator().fired_events()));

  const bool ok =
      probe.steady_max().intra_cluster <= params.intra_cluster_skew_bound() &&
      system.total_violations() == 0;
  std::printf("\n%s\n", ok ? "OK: all bounds hold under attack"
                           : "FAIL: bound violated");
  return ok ? 0 : 1;
}
