// Built-in scenario definitions: the declarative ports of the hand-rolled
// experiment binaries. Each definition is pure data, and E1, E2, E4, E5,
// E6, E8, E9 and E13 have no binary of their own any more: `ftgcs_bench
// run <name>` prints their tables, and each description says what to
// check in them. EXPERIMENTS.md maps experiment ids to these names.
#include "exp/registry.h"

#include <initializer_list>

#include "byz/strategies.h"

namespace ftgcs::exp {

namespace {

std::vector<AxisValue> values_of(std::initializer_list<double> vs) {
  std::vector<AxisValue> result;
  for (double v : vs) result.push_back(AxisValue::of(v));
  return result;
}

/// The fault on/off toggle: "no", then `label` for the attacked run.
SweepAxis attacked_axis(const char* label) {
  return {"attacked", {AxisValue::named(0, "no"), AxisValue::named(1, label)}};
}

AxisValue strategy_value(byz::StrategyKind kind) {
  return AxisValue::named(static_cast<double>(static_cast<int>(kind)),
                          byz::strategy_name(kind));
}

// E1 (first table) — Theorem 1.1 / 4.10: local skew O((ρd+U)·log D) on a
// line ramp, clean and under a full two-faced fault budget.
ScenarioSpec e1_local_skew_vs_diameter() {
  ScenarioSpec spec;
  spec.name = "e1_local_skew_vs_diameter";
  spec.title = "local skew vs diameter (Theorem 1.1: O((rho*d+U)*log D))";
  spec.description =
      "Line ramp with per-edge gap ~2.3 kappa; initial global skew grows "
      "linearly in D while the measured local skew stays under the "
      "kappa*(log_b(S/kappa)+1) envelope (in_local_bound = 1) at every D, "
      "essentially unchanged by f=1 two-faced faults per cluster. The "
      "measured value is FLAT in D: a uniform ramp drains without stacking "
      "trigger levels, so the bound is checked as an upper envelope; the "
      "adaptive adversary that forces Omega(log D) is out of scope.";
  spec.ramp.gap_kappa = 2.3;
  spec.horizon.base_rounds = 150.0;
  spec.horizon.per_diameter_rounds = 40.0;
  spec.faults.mode = FaultMode::kUniform;
  spec.faults.count = -1;  // full budget f
  spec.faults.strategy = byz::StrategyKind::kTwoFaced;
  spec.faults.param_times_E = 1.0;
  spec.faults.seed = 77;
  spec.axes = {
      {"diameter", values_of({2, 4, 8, 16, 32})},
      attacked_axis("f=1"),
  };
  spec.columns = {"S_init",         "max_local",        "predicted_local",
                  "in_local_bound", "local_over_kappa", "log2_diameter",
                  "violations"};
  return spec;
}

// E1 (second table) — the gradient property vs the scale of the imposed
// skew at fixed D = 8: max-local/init-local stays ~1 (no compression).
ScenarioSpec e1_gradient_scale() {
  ScenarioSpec spec;
  spec.name = "e1_gradient_scale";
  spec.title = "gradient property vs imposed skew (D = 8)";
  spec.description =
      "Line of 9 clusters with growing per-edge ramps; the worst edge never "
      "carries much more than its initial share: ratio_local stays ~1 at "
      "every scale (no compression, unlike E5's trees).";
  spec.topology.a = 9;
  spec.horizon.base_rounds = 600.0;
  spec.seeds = {2};
  spec.axes = {{"gap_rounds", values_of({2, 6, 16, 32})}};
  spec.columns = {"init_local", "S_init", "max_local", "ratio_local"};
  return spec;
}

// E2 — Corollary 3.2: intra-cluster skew ≤ 2·ϑ_g·E = O(ρd + U). One
// cluster under spread constant drift and a full two-faced budget.
ScenarioSpec e2_cluster_skew_bound() {
  ScenarioSpec spec;
  spec.name = "e2_cluster_skew_bound";
  spec.title = "intra-cluster skew bound (Corollary 3.2: <= 2*theta_g*E)";
  spec.description =
      "A single cluster (k = 4) with f = 1 two-faced member at strength E, "
      "swept over rho x U, worst case over 3 seeds. steady_intra (the max "
      "skew between correct members after 5 rounds) stays below "
      "intra_bound = 2*theta_g*E with 0 violations in every row; E scales "
      "linearly in U at fixed rho and grows with rho (the rho*d term).";
  spec.topology.a = 1;
  spec.horizon.base_rounds = 80.0;
  spec.steady_after_rounds = 5.0;
  spec.faults.mode = FaultMode::kUniform;
  spec.faults.count = -1;  // full budget f
  spec.faults.strategy = byz::StrategyKind::kTwoFaced;
  spec.faults.param_times_E = 1.0;
  spec.seeds = {1, 2, 3};
  spec.aggregation = SeedAggregation::kWorstOverSeeds;
  spec.axes = {
      {"rho", values_of({1e-4, 5e-4, 1e-3})},
      {"U", values_of({0.001, 0.01, 0.05})},
  };
  spec.columns = {"E", "intra_bound", "steady_intra", "in_intra_bound",
                  "violations"};
  return spec;
}

// E4 — the resilience boundary: ≤ f faults per cluster of k = 3f+1 keeps
// every bound; f+1 lets active attacks break trimmed agreement.
ScenarioSpec e4_fault_tolerance_boundary() {
  ScenarioSpec spec;
  spec.name = "e4_fault_tolerance_boundary";
  spec.title = "fault-tolerance boundary (f tolerated, f+1 not; k = 3f+1)";
  spec.description =
      "Line of 3 clusters (k = 4, f = 1); strategy x faults-per-cluster "
      "sweep, worst case over 3 seeds. Rows with <= f faults stay within "
      "the intra-cluster bound with 0 violations; f+1 rows of the active "
      "attacks (two-faced, equivocator) break the bound or rack up "
      "violations.";
  spec.topology.a = 3;
  spec.horizon.base_rounds = 60.0;
  spec.steady_after_rounds = 5.0;
  spec.faults.mode = FaultMode::kUniform;
  spec.faults.default_param_for_strategy = true;
  spec.seeds = {1, 2, 3};
  spec.aggregation = SeedAggregation::kWorstOverSeeds;
  spec.axes = {
      {"strategy",
       {strategy_value(byz::StrategyKind::kSilent),
        strategy_value(byz::StrategyKind::kTwoFaced),
        strategy_value(byz::StrategyKind::kClockLiar),
        strategy_value(byz::StrategyKind::kSkewPump),
        strategy_value(byz::StrategyKind::kEquivocator)}},
      {"faults_per_cluster", values_of({0, 1, 2})},
  };
  spec.columns = {"max_intra", "intra_bound", "in_intra_bound", "max_local",
                  "violations"};
  return spec;
}

// E6 (a) — Theorem C.3 contraction: start 3x above the global-skew band
// and verify the drain into c·δ·D.
ScenarioSpec e6_global_skew_drain() {
  ScenarioSpec spec;
  spec.name = "e6_global_skew_drain";
  spec.title = "global skew contraction into the O(delta*D) band "
               "(Theorem C.3)";
  spec.description =
      "Line ramp starting 3x above the predicted band c*delta*D; the "
      "global-skew module drains the excess at catch-up rate mu, so "
      "final_global ends inside the linear-in-D band (in_global_band = 1).";
  spec.ramp.gap_band_factor = 3.0;
  spec.horizon.base_rounds = 200.0;
  spec.horizon.drain_factor = 1.3;
  spec.seeds = {5};
  spec.axes = {{"diameter", values_of({2, 4, 8, 16})}};
  spec.columns = {"band", "S_init", "final_global", "in_global_band"};
  return spec;
}

// E6 (b) — containment under worst-case split drift, plus the M_v estimate
// lag of Lemma C.2.
ScenarioSpec e6_split_drift_containment() {
  ScenarioSpec spec;
  spec.name = "e6_split_drift_containment";
  spec.title = "global-skew containment under split drift + M_v lag "
               "(Lemmas C.1-C.2)";
  spec.description =
      "Synchronized start, half the line at rate 1+rho and half at 1 "
      "(flipping every 50 rounds); the band is never left "
      "(in_global_band_max = 1) and the M_v lag grows at most linearly in "
      "D (Lemma C.2's O(delta*D)).";
  spec.drift.kind = DriftKind::kSpatialSplit;
  spec.drift.flip_rounds = 50.0;
  spec.horizon.base_rounds = 400.0;
  spec.probe_interval_rounds = 1.0;
  spec.measure_m_lag = true;
  spec.seeds = {6};
  spec.axes = {{"diameter", values_of({2, 4, 8, 16})}};
  spec.columns = {"band", "max_global", "in_global_band_max", "max_m_lag"};
  return spec;
}

// E9 — Theorem 1.1's cost side: nodes x O(f), edges x O(f²), degree > 2f,
// plus measured message load.
ScenarioSpec e9_overhead_scaling() {
  ScenarioSpec spec;
  spec.name = "e9_overhead_scaling";
  spec.title = "augmentation overhead: nodes x O(f), edges x O(f^2)";
  spec.description =
      "Line of 5 clusters for growing fault budgets; static counts from the "
      "augmentation plus measured messages per round per node. "
      "node_factor = 3f+1 (linear), edge_factor grows quadratically "
      "(edge_factor_norm = edge_factor/(f+1)^2 roughly constant), and "
      "max_degree > 2f as f-tolerance requires.";
  spec.topology.a = 5;
  spec.params.rho = 1e-4;
  spec.horizon.base_rounds = 10.0;
  spec.seeds = {9};
  spec.axes = {{"f", values_of({0, 1, 2, 3, 4})}};
  spec.columns = {"k",           "nodes",      "node_factor",
                  "edges",       "edge_factor", "edge_factor_norm",
                  "max_degree",  "msgs_round_node"};
  return spec;
}

// Large-grid family — throughput workloads for the typed event engine.
// These are not paper-claim experiments: they exist so the registry can
// drive production-scale topologies (10k+ clusters) and report the
// simulator's event throughput on them (`ftgcs_bench run large_ring
// --timing`). Short horizon, sparse probes: the cost is dominated by the
// pulse traffic itself, which is the thing being measured.
ScenarioSpec large_family(ScenarioSpec spec) {
  spec.horizon.base_rounds = 20.0;
  spec.probe_interval_rounds = 5.0;
  spec.seeds = {1};
  spec.axes = {{"clusters", values_of({1000, 5000, 10000})}};
  spec.columns = {"clusters",  "nodes",      "edges",  "max_degree",
                  "events",    "max_local",  "max_global",
                  "msgs_round_node"};
  return spec;
}

ScenarioSpec large_ring() {
  ScenarioSpec spec;
  spec.name = "large_ring";
  spec.title = "engine headroom: ring at N in {1k, 5k, 10k} clusters";
  spec.description =
      "Fault-tolerant ring (f = 1, k = 4) at production scale — 4k to 40k "
      "nodes of pure pulse traffic over a 20-round horizon. Run with "
      "--timing for events/sec; the skew columns double as a sanity check "
      "that the protocol stays synchronized at scale.";
  spec.topology.kind = TopologyKind::kRing;
  return large_family(std::move(spec));
}

ScenarioSpec large_torus() {
  ScenarioSpec spec;
  spec.name = "large_torus";
  spec.title = "engine headroom: square torus at N in {1k, 5k, 10k} clusters";
  spec.description =
      "Fault-tolerant square torus (f = 1, k = 4; TRIX-style grid fabric, "
      "degree-4 cluster graph) at 1k/5k/10k clusters. The denser augmented "
      "edge set makes this the heaviest registered workload per round.";
  spec.topology.kind = TopologyKind::kTorus;
  spec.topology.a = 32;
  spec.topology.b = 32;
  return large_family(std::move(spec));
}

// E8 (§1) — the plain GCS algorithm "utterly fails" under one Byzantine
// node, while the augmented construction absorbs f faults per cluster.
// The first two registrations are the two sides of that claim over a
// horizon axis; the third is the protocol-selection demo kept for
// paper_suite and the benchmark pins.
ScenarioSpec e8_ftgcs_skew_pump() {
  ScenarioSpec spec;
  spec.name = "e8_ftgcs_skew_pump";
  spec.title = "FT-GCS vs a skew pump in every cluster (ring of 9)";
  spec.description =
      "FT-GCS on a ring of 9 clusters (36 nodes) with f = 1 skew-pump "
      "member per cluster at strength 2E, horizons of ~100 to ~800 time "
      "units (T ~ 4.04). Check that the pumped max_local stays below the "
      "fast-trigger level 2*kappa - delta at every horizon and close to "
      "the clean row, with 0 violations. Both rows grow with the horizon "
      "as drift builds up (at ~8,000 units: 9.33 clean, 9.51 pumped, "
      "against 2*kappa - delta = 17.29).";
  spec.topology.kind = TopologyKind::kRing;
  spec.topology.a = 9;
  spec.faults.mode = FaultMode::kUniform;
  spec.faults.count = -1;  // full budget f
  spec.faults.strategy = byz::StrategyKind::kSkewPump;
  spec.faults.param_times_E = 2.0;
  spec.seeds = {8};
  spec.axes = {
      {"horizon_rounds", values_of({25, 50, 99, 198})},
      attacked_axis("pump"),
  };
  spec.columns = {"kappa", "delta", "max_local", "max_intra", "violations"};
  return spec;
}

ScenarioSpec e8_gcs_pump_failure() {
  ScenarioSpec spec;
  spec.name = "e8_gcs_pump_failure";
  spec.title = "plain GCS vs one Byzantine pump node (ring of 9)";
  spec.description =
      "Non-fault-tolerant GCS on a ring of 9 with one pump node at vertex "
      "4, horizons of ~100 to ~800 time units (T ~ 12.54). The pump shows "
      "lower-id neighbors a slow clock and higher-id ones a fast clock, so "
      "it splits the ring only from a vertex with neighbors on both sides "
      "of its id (1-7; vertices 0 and 8 look uniformly fast or slow). "
      "Check that the pumped max_local exceeds kappa at every horizon and "
      "keeps growing with it (linearly in t), while the clean row only "
      "follows the drift (rho*t, below kappa up to t ~ 800).";
  spec.protocol = ProtocolKind::kGcsBaseline;
  spec.topology.kind = TopologyKind::kRing;
  spec.topology.a = 9;
  spec.params.U = 0.1;
  spec.params.mu = 0.05;
  spec.faults.mode = FaultMode::kInCluster;
  spec.faults.cluster = 4;
  spec.faults.count = 1;
  spec.faults.strategy = byz::StrategyKind::kSkewPump;
  spec.faults.param_abs = 0.05;
  spec.probe_interval_rounds = 1.0;
  spec.seeds = {8};
  spec.axes = {
      {"horizon_rounds", values_of({8, 16, 32, 64})},
      attacked_axis("pump"),
  };
  spec.columns = {"kappa", "max_local", "final_local", "max_global"};
  return spec;
}

// Protocol-selection demo kept for paper_suite and the benchmark pins: the
// plain GCS baseline with one pump on vertex 0 of a ring. It does not show
// the E8 failure (see e8_gcs_pump_failure).
ScenarioSpec e8_gcs_pump_baseline() {
  ScenarioSpec spec;
  spec.name = "e8_gcs_pump_baseline";
  spec.title = "plain GCS vs one Byzantine pump node (S1 failure mode)";
  spec.description =
      "Non-fault-tolerant GCS on a ring of 9 with one pump node on vertex "
      "0, 300 rounds. Both neighbors of vertex 0 have higher ids, so the "
      "pump shows them one uniformly fast clock and does not split the "
      "ring: the pumped max_local (1.652) stays close to the clean row "
      "(1.486). The failure claim is e8_gcs_pump_failure's, with the pump "
      "at vertex 4.";
  spec.protocol = ProtocolKind::kGcsBaseline;
  spec.topology.kind = TopologyKind::kRing;
  spec.topology.a = 9;
  spec.params.U = 0.1;
  spec.params.mu = 0.05;
  spec.faults.mode = FaultMode::kUniform;
  spec.faults.count = 1;
  spec.faults.strategy = byz::StrategyKind::kSkewPump;
  spec.faults.param_abs = 0.05;
  spec.horizon.base_rounds = 300.0;
  spec.probe_interval_rounds = 5.0;
  spec.seeds = {8};
  spec.axes = {attacked_axis("pump")};
  spec.columns = {"max_local", "max_global", "final_local", "final_global"};
  return spec;
}

// E5 (§1, cf. [15]) — tree sync compresses a distributed skew onto one
// edge; FT-GCS drains it edge by edge. One ramp: line of 8, 4 rounds/edge.
ScenarioSpec e5_ramp(ScenarioSpec spec) {
  spec.topology.a = 8;
  spec.ramp.gap_rounds = 4;
  spec.seeds = {3};
  spec.columns = {"init_local", "S_init", "max_local", "final_global"};
  return spec;
}

ScenarioSpec e5_tree_sync() {
  ScenarioSpec spec;
  spec.name = "e5_tree_sync";
  spec.title = "skew compression: node-level tree sync on a ramp (Sec. 1)";
  spec.description =
      "Master/slave pulse echo rooted at node 0 (shares every 4 time units) "
      "on the E5 ramp, 30 rounds. Each node steps to its parent's clock as "
      "the correction wave passes, so the whole initial global skew lands "
      "on the wavefront edge: check max_local >= 0.95*S_init, while "
      "final_global drains to ~0. Compare e5_ftgcs_ramp.";
  spec.protocol = ProtocolKind::kTreeSync;
  spec.horizon.base_rounds = 30.0;
  spec.probe_interval_rounds = 1.0 / 16.0;
  return e5_ramp(std::move(spec));
}

ScenarioSpec e5_cluster_tree() {
  ScenarioSpec spec;
  spec.name = "e5_cluster_tree";
  spec.title = "skew compression: FT cluster tree on a ramp (Sec. 1)";
  spec.description =
      "The paper's 'simplistic approach': clusters of k = 4 in a BFS tree, "
      "the root cluster running Lynch-Welch and every other cluster echoing "
      "its parent's (f+1)-th pulse, on the E5 ramp for 100 rounds. Like "
      "node-level tree sync it compresses the ramp onto one cluster edge: "
      "check max_local >= 0.95*S_init. Compare e5_ftgcs_ramp.";
  spec.protocol = ProtocolKind::kClusterTree;
  spec.horizon.base_rounds = 100.0;
  spec.probe_interval_rounds = 1.0 / 8.0;
  return e5_ramp(std::move(spec));
}

ScenarioSpec e5_ftgcs_ramp() {
  ScenarioSpec spec;
  spec.name = "e5_ftgcs_ramp";
  spec.title = "no compression: FT-GCS on the tree-sync ramp (Sec. 1)";
  spec.description =
      "FT-GCS (f = 1, k = 4) on the E5 ramp for 700 rounds: it drains the "
      "global skew at rate ~mu while no edge exceeds about its initial "
      "share. Check max_local <= 1.1*init_local (against ~S_init for "
      "e5_tree_sync and e5_cluster_tree) with 0 violations.";
  spec.horizon.base_rounds = 700.0;
  spec = e5_ramp(std::move(spec));
  spec.columns.push_back("violations");
  return spec;
}

// E13 (App. A) — Lynch-Welch's skew O(U + rho*d) tracks U down, while
// Srikanth-Toueg's stays O(d): both sweep U at d = 1, worst of seeds 1-3.
ScenarioSpec e13_u_sweep(ScenarioSpec spec) {
  spec.seeds = {1, 2, 3};
  spec.aggregation = SeedAggregation::kWorstOverSeeds;
  spec.axes.push_back({"U", values_of({0.2, 0.1, 0.05, 0.02, 0.01})});
  return spec;
}

ScenarioSpec e13_lynch_welch() {
  ScenarioSpec spec;
  spec.name = "e13_lynch_welch";
  spec.title = "Lynch-Welch skew tracks U (App. A: O(U + rho*d))";
  spec.description =
      "One fault-free cluster (k = 4) running ClusterSync (Lynch-Welch) for "
      "60 rounds at rho = 1e-3. steady_intra (after 10 rounds) tracks U "
      "down: steady_intra/U stays within 1.4-2.1 at every U, and is at "
      "least 3x below e13_srikanth_toueg's max_global in every row.";
  spec.topology.a = 1;
  spec.horizon.base_rounds = 60.0;
  spec.steady_after_rounds = 10.0;
  spec.columns = {"E", "steady_intra", "violations"};
  return e13_u_sweep(std::move(spec));
}

ScenarioSpec e13_srikanth_toueg() {
  ScenarioSpec spec;
  spec.name = "e13_srikanth_toueg";
  spec.title = "Srikanth-Toueg skew stays O(d) (App. A)";
  spec.description =
      "Srikanth-Toueg (n = 4, f = 1, period 10d) on a clique, swept over "
      "rho x U. Its jump-based corrections sawtooth the clocks by ~d at "
      "every resynchronization, so max_global >= 0.9*d at every U and "
      "rho, far above e13_lynch_welch. ST reads only rho, d and U; the "
      "custom preset (mu = 0.1, phi = 0.5) fixes the round T = 1.85-2.57 "
      "of the 320-round horizon and the T/16 (< d/4) probe grid.";
  spec.protocol = ProtocolKind::kSrikanthToueg;
  spec.topology.kind = TopologyKind::kClique;
  spec.topology.a = 4;
  spec.params.preset = ParamsSpec::Preset::kCustom;
  spec.params.mu = 0.1;
  spec.params.phi = 0.5;
  spec.horizon.base_rounds = 320.0;
  spec.probe_interval_rounds = 1.0 / 16.0;
  spec.axes = {{"rho", values_of({1e-3, 1e-2})}};
  spec.columns = {"max_global"};
  return e13_u_sweep(std::move(spec));
}

}  // namespace

void register_builtin_scenarios() {
  Registry& registry = Registry::instance();
  registry.add(e1_local_skew_vs_diameter());
  registry.add(e1_gradient_scale());
  registry.add(e2_cluster_skew_bound());
  registry.add(e4_fault_tolerance_boundary());
  registry.add(e6_global_skew_drain());
  registry.add(e6_split_drift_containment());
  registry.add(e9_overhead_scaling());
  registry.add(e8_ftgcs_skew_pump());
  registry.add(e8_gcs_pump_failure());
  registry.add(e8_gcs_pump_baseline());
  registry.add(e5_tree_sync());
  registry.add(e5_cluster_tree());
  registry.add(e5_ftgcs_ramp());
  registry.add(e13_lynch_welch());
  registry.add(e13_srikanth_toueg());
  registry.add(large_ring());
  registry.add(large_torus());
}

}  // namespace ftgcs::exp
