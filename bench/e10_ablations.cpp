// E10 — ablations of the design choices DESIGN.md calls out:
//
//  (a) trigger slack δ: half/normal/double the Lemma 4.8 value. Too small
//      a δ breaks faithfulness (conditions no longer imply unanimity);
//      too large a δ inflates κ and with δ ≥ κ/2 the triggers can overlap
//      (our sharpened Lemma 4.5).
//  (b) the global-skew module (Appendix C): without the catch-up rule a
//      distributed ramp below the trigger levels never drains.
//  (c) estimate initialization: replicas that must acquire the observed
//      cluster's offset from scratch vs the flooding-established estimates
//      the paper assumes.
#include "bench_util.h"

namespace {

using namespace ftgcs;

struct FaithfulnessCount {
  int checks = 0;
  int misses = 0;  ///< FC/SC held but some member not in that mode
};

struct AblationOutcome {
  double max_local = 0.0;     ///< max adjacent-cluster skew seen
  double final_global = 0.0;  ///< remaining global skew at the horizon
  double initial_global = 0.0;
  std::uint64_t violations = 0;
  FaithfulnessCount faithfulness;
};

AblationOutcome run(const core::Params& params, bool global_module,
                    bool replicas_know, std::uint64_t seed) {
  const int clusters = 6;
  const int gap_rounds = 4;
  core::FtGcsSystem::Config config;  // a line with a per-cluster ramp
  config.params = params;
  config.seed = seed;
  for (int c = 0; c < clusters; ++c) {
    config.cluster_round_offsets.push_back(c * gap_rounds);
  }
  config.enable_global_module = global_module;
  config.replicas_know_offsets = replicas_know;
  core::FtGcsSystem system(net::Graph::line(clusters), std::move(config));
  metrics::SkewProbe probe(system, params.T / 4.0, 0.0);
  probe.start();
  system.start();

  AblationOutcome out;
  for (int step = 1; step <= 500; ++step) {
    system.run_until(step * params.T);
    // Faithfulness sampling (as in Definition 4.6's purpose).
    std::vector<double> clocks(clusters);
    bool all_alive = true;
    for (int c = 0; c < clusters; ++c) {
      const auto value = system.cluster_clock(c);
      if (!value) {
        all_alive = false;
        break;
      }
      clocks[c] = *value;
    }
    if (!all_alive) continue;
    const auto& graph = system.topology().cluster_graph();
    for (int c = 0; c < clusters; ++c) {
      std::vector<double> neighbors;
      for (int b : graph.neighbors(c)) neighbors.push_back(clocks[b]);
      const core::TriggerView view{clocks[c], neighbors};
      const bool fc = core::fast_condition(view, params.kappa);
      const bool sc = core::slow_condition(view, params.kappa);
      if (!fc && !sc) continue;
      ++out.faithfulness.checks;
      for (int member : system.topology().members(c)) {
        const int gamma = system.node(member).gamma();
        if ((fc && gamma != 1) || (sc && gamma != 0)) {
          ++out.faithfulness.misses;
          break;
        }
      }
    }
  }
  const auto& last = probe.samples().back();
  out.max_local = probe.overall_max().cluster_local;
  out.final_global = last.cluster_global;
  out.initial_global = (clusters - 1) * gap_rounds * params.T;
  out.violations = system.total_violations();
  return out;
}

}  // namespace

int main() {
  using namespace ftgcs;
  using namespace ftgcs::bench;

  banner("E10", "ablations: trigger slack, global module, estimate init");

  metrics::Table table({"variant", "max local", "final global",
                        "drained", "FC/SC samples", "faithfulness misses",
                        "violations"});

  auto report = [&](const char* name, const AblationOutcome& outcome) {
    table.add_row(
        {name, metrics::Table::num(outcome.max_local, 4),
         metrics::Table::num(outcome.final_global, 4),
         outcome.final_global < 0.5 * outcome.initial_global
             ? "yes"
             : "NO",
         metrics::Table::integer(outcome.faithfulness.checks),
         metrics::Table::integer(outcome.faithfulness.misses),
         metrics::Table::integer(
             static_cast<long long>(outcome.violations))});
  };

  // (a) trigger slack sweep.
  for (double scale : {0.25, 1.0, 2.0}) {
    core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
    params.delta_trig *= scale;
    params.kappa = 3.0 * params.delta_trig;
    char name[64];
    std::snprintf(name, sizeof name, "(a) delta x%.2f (kappa=%.2f)", scale,
                  params.kappa);
    report(name, run(params, true, true, 10));
  }

  // (b) global-skew module off: the shallow ramp (below trigger levels)
  // cannot drain without the catch-up rule.
  {
    const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
    report("(b) global module ON ", run(params, true, true, 11));
    report("(b) global module OFF", run(params, false, true, 11));
  }

  // (c) replica initialization.
  {
    const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
    report("(c) replicas pre-aligned", run(params, true, true, 12));
    report("(c) replicas from zero  ", run(params, true, false, 12));
  }

  table.print(std::cout);
  std::printf("\nshape check: (a) smaller delta risks faithfulness misses; "
              "larger delta inflates local skew\nproportionally to kappa. "
              "(b) without the Appendix C module the ramp never drains. "
              "(c) zero-init\nreplicas converge eventually but transiently "
              "mis-aim the triggers.\n");
  return 0;
}
