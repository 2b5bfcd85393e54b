// Declarative experiment scenarios.
//
// A ScenarioSpec describes one experiment family as plain data: a topology
// generator, a drift model, a fault plan, a protocol choice, a parameter
// preset, a horizon, a seed list, and a sweep grid of named axes. The spec
// is a value type — copyable, comparable by content, serializable — so a
// sweep runner can replicate it across worker threads and every replica
// resolves to an identical simulation.
//
// Resolution happens in two steps:
//   1. apply_axis() writes one axis assignment (e.g. "diameter" = 16) into
//      a copy of the spec;
//   2. resolve() (run.h) turns the concrete spec + seed into a ResolvedRun
//      with a built Graph, Params and FaultPlan, ready to simulate.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "byz/strategies.h"
#include "core/params.h"
#include "net/graph.h"

namespace ftgcs::exp {

// ---- topology ---------------------------------------------------------------

enum class TopologyKind {
  kLine,
  kRing,
  kStar,
  kClique,
  kGrid,
  kTorus,
  kTree,
  kHypercube,
  kGnp,
};

/// Cluster-graph generator selection. Interpretation of (a, b):
/// line/ring/star/clique → a = n; grid/torus → a × b; tree → branching a,
/// depth b; hypercube → dimension a; gnp → n = a with edge probability p.
struct TopologySpec {
  TopologyKind kind = TopologyKind::kLine;
  int a = 2;
  int b = 0;
  double p = 0.0;           ///< kGnp edge probability
  std::uint64_t seed = 1;   ///< kGnp resampling seed

  net::Graph build() const;
  std::string describe() const;

  /// Reconfigures the generator so the cluster graph has hop diameter
  /// `diameter` (supported for line, ring and grid).
  void set_diameter(int diameter);
  /// Reconfigures the generator to `n` clusters (line/ring/star/clique).
  void set_clusters(int n);
};

// ---- drift ------------------------------------------------------------------

enum class DriftKind {
  kSpreadConstant,  ///< system default: constant rates spread over [1, 1+ρ]
  kRandomConstant,  ///< constant rates sampled uniformly at random
  kRandomWalk,
  kSinusoidal,
  kSpatialSplit,    ///< adversarial half-fast/half-slow split by cluster
};

/// Drift-model selection; durations are in rounds (units of Params::T).
struct DriftSpec {
  DriftKind kind = DriftKind::kSpreadConstant;
  double step_rounds = 1.0;     ///< kRandomWalk interval / kSinusoidal sample
  double step_size = 0.0;       ///< kRandomWalk step
  double period_rounds = 20.0;  ///< kSinusoidal period
  double flip_rounds = 0.0;     ///< kSpatialSplit side-swap period (0 = never)
  double boundary_frac = 0.5;   ///< kSpatialSplit boundary (fraction of |C|)
};

// ---- faults -----------------------------------------------------------------

enum class FaultMode {
  kNone,
  kUniform,    ///< `count` faulty members in every cluster
  kInCluster,  ///< `count` faulty members in cluster `cluster`
  kIid,        ///< every node faulty independently with `probability`
};

/// Fault-plan selection. The strategy parameter is param_abs +
/// param_times_E·E so attack strengths can scale with the derived pulse
/// diameter without knowing it at registration time. Under kGcsBaseline
/// the faults are pump nodes with strength param_abs: kInCluster places
/// `count` of them on consecutive vertices from `cluster`, every other
/// active mode spreads `count` evenly from vertex 0.
struct FaultPlanSpec {
  FaultMode mode = FaultMode::kNone;
  bool enabled = true;  ///< sweep toggle (the "attacked" axis); false → no faults
  int count = -1;       ///< faulty members; −1 → the full budget params.f
  int cluster = 0;      ///< kInCluster target
  double probability = 0.0;  ///< kIid
  byz::StrategyKind strategy = byz::StrategyKind::kTwoFaced;
  double param_abs = 0.0;
  double param_times_E = 0.0;
  /// Ignore param_abs/param_times_E and use a per-strategy default strength
  /// (silent → 0, clock-liar → 100, otherwise 3E) — the E4 sweep rule.
  bool default_param_for_strategy = false;
  std::uint64_t seed = 0;  ///< fault-placement seed; 0 → the run seed

  bool active() const { return enabled && mode != FaultMode::kNone; }
};

// ---- protocol & parameters --------------------------------------------------

/// Every kind but kFtGcs is a comparison baseline run by one probe loop.
/// kSrikanthToueg and kTreeSync model no faults (an active plan throws
/// std::invalid_argument); kClusterTree takes the FT-GCS fault plan.
enum class ProtocolKind {
  kFtGcs,          ///< the full PODC'19 construction (core::FtGcsSystem)
  kGcsBaseline,    ///< plain non-fault-tolerant GCS (gcs::GcsSystem)
  kSrikanthToueg,  ///< Srikanth–Toueg on a clique of the graph's n vertices
  kTreeSync,       ///< node-level master/slave pulse echo (§1)
  kClusterTree,    ///< fault-tolerant cluster master/slave tree (§1)
};

/// Parameter preset selection (resolved via core::Params at run time).
/// `mu`/`phi` feed the kCustom preset only — the practical/strict presets
/// derive them from rho (so the "mu"/"phi" sweep axes require kCustom).
/// For the kGcsBaseline protocol, `mu` (when > 0) is the baseline's
/// fast-mode speedup regardless of preset.
struct ParamsSpec {
  enum class Preset { kPractical, kPaperStrict, kCustom };
  Preset preset = Preset::kPractical;
  double rho = 1e-3;
  double d = 1.0;
  double U = 0.01;
  int f = 1;
  double mu = 0.0;       ///< kCustom; also the kGcsBaseline speedup
  double phi = 0.0;      ///< kCustom
  int cluster_size = 0;  ///< 0 → k = 3f+1

  core::Params build() const;
};

// ---- initial conditions & horizon ------------------------------------------

/// Initial logical-offset ramp (cluster c starts gap·c rounds ahead). The
/// gap can be given directly, in units of κ, or as a multiple of the
/// predicted global-skew band — whichever is resolved first in this order:
/// gap_band_factor, gap_kappa, gap_rounds.
struct RampSpec {
  int gap_rounds = 0;
  double gap_kappa = 0.0;        ///< gap = ⌊gap_kappa·κ/T⌋ + 1
  double gap_band_factor = 0.0;  ///< gap = ⌊factor·band/(D·T)⌋ + 1

  int resolve(const core::Params& params, int diameter) const;
  bool any() const {
    return gap_rounds > 0 || gap_kappa > 0.0 || gap_band_factor > 0.0;
  }
};

/// Run length in rounds: base + per_diameter·D + drain_factor·S/(µ·T),
/// where S is the initial global skew of the ramp (drain time scales with
/// the skew to absorb at catch-up rate µ).
struct HorizonSpec {
  double base_rounds = 300.0;
  double per_diameter_rounds = 0.0;
  double drain_factor = 0.0;

  double resolve(const core::Params& params, int diameter,
                 double initial_global) const;
};

// ---- sweep grid -------------------------------------------------------------

struct AxisValue {
  double value = 0.0;
  std::string label;  ///< display label; empty → numeric formatting

  static AxisValue of(double v) { return {v, {}}; }
  static AxisValue named(double v, std::string l) { return {v, std::move(l)}; }
};

struct SweepAxis {
  std::string name;
  std::vector<AxisValue> values;
};

enum class SeedAggregation {
  kPerSeed,        ///< one result row per (grid point, seed)
  kWorstOverSeeds, ///< one row per grid point: max over seeds (counters sum)
};

// ---- the scenario -----------------------------------------------------------

struct ScenarioSpec {
  std::string name;         ///< registry key (e.g. "e1_local_skew_vs_diameter")
  std::string title;        ///< one-line banner (paper claim)
  std::string description;  ///< longer help text for `ftgcs_bench list`

  TopologySpec topology;
  DriftSpec drift;
  FaultPlanSpec faults;
  ProtocolKind protocol = ProtocolKind::kFtGcs;
  ParamsSpec params;
  RampSpec ramp;
  HorizonSpec horizon;

  /// Shard count for the conservative-parallel backend (src/par/): > 1
  /// stripes ONE run's cluster graph over that many worker threads in
  /// lock-step safe windows. Tables are bit-identical for every shard
  /// count (pinned by tests/test_par_shards.cpp), so `ftgcs_bench
  /// --shards T` — or the "shards" sweep axis — is a pure throughput
  /// toggle. FT-GCS protocol only; the baselines and degenerate
  /// partitions fall back to the single-simulator engine.
  int shards = 1;

  std::vector<std::uint64_t> seeds = {1};
  SeedAggregation aggregation = SeedAggregation::kPerSeed;

  double probe_interval_rounds = 0.25;  ///< skew sampling period
  double steady_after_rounds = 0.0;     ///< steady-state window start
  bool measure_m_lag = false;  ///< track max_v (maxᵤ L_u − M_v) (Lemma C.2)
  bool replicas_know_offsets = true;

  /// Streaming trace capture: write every fired pulse delivery to this
  /// .ftr file (`ftgcs_bench --trace PATH`; empty = off). Multi-task
  /// sweeps suffix ".taskN" per task so files never interleave. The bytes
  /// are identical for every `--shards T`.
  std::string trace_path;
  /// Deterministic metrics series: write one JSONL row per probe to this
  /// file (`ftgcs_bench --metrics PATH`; empty = off), plus the
  /// nondeterministic PATH.profile sidecar (wall-clock phases + queue/
  /// shard diag). Multi-task sweeps suffix ".taskN" like trace_path. The
  /// series bytes are identical for every `--shards T`; the sidecar is
  /// not.
  std::string metrics_path;
  /// Online invariant monitors (`--no-monitors` to disable). Probe-tier
  /// cost; reported in the --timing footer, never in the tables.
  bool monitors = true;

  std::vector<SweepAxis> axes;       ///< the parameter grid
  std::vector<std::string> columns;  ///< metric names the table sink prints

  /// Grid size (product of axis lengths; 1 if no axes) × seed count.
  std::size_t num_points() const;
  std::size_t num_tasks() const { return num_points() * seeds.size(); }
};

/// Writes one axis assignment into the spec. Supported axis names:
///   diameter, clusters, gap_rounds, gap_kappa, f, cluster_size,
///   faults_per_cluster, strategy, attacked, rho, d, U, mu, phi,
///   horizon_rounds, flip_rounds, probability, shards, fault_mode
/// (fault_mode = the FaultMode enum ordinal: 0 none, 1 uniform,
/// 2 in-cluster, 3 iid — the knob that turns a fault-free throughput
/// scenario like large_torus into a fault-heavy one from the CLI;
/// strategy strength falls back to the per-strategy default when no
/// explicit param was registered)
/// Throws std::invalid_argument, naming the axis and the value, for an
/// unknown name or a value outside the axis's domain (non-finite,
/// fractional where the axis is an integer or an enum ordinal, or out of
/// its count/enum range).
void apply_axis(ScenarioSpec& spec, const std::string& name, double value);

/// Parses one `--axis name=v1,v2,...` argument. The strategy axis also
/// accepts strategy names. Throws std::invalid_argument on a malformed
/// argument or a non-numeric value; apply_axis checks the domain.
SweepAxis parse_axis(const std::string& text);

/// Replaces the spec's axis of the same name, or appends `axis`.
void override_axis(ScenarioSpec& spec, SweepAxis axis);

/// Strict whole-token integer parse for the CLI flag `flag`: no trailing
/// characters, no sign on an unsigned type, no overflow, and a result in
/// [lo, hi]. Throws std::invalid_argument naming the flag. Instantiated
/// for int and std::uint64_t.
template <class Int>
Int parse_integer(const std::string& flag, const std::string& token,
                  Int lo = std::numeric_limits<Int>::min(),
                  Int hi = std::numeric_limits<Int>::max());

/// Strict whole-token parse of a finite real for the CLI argument `flag`:
/// no trailing characters, no inf or nan. Throws std::invalid_argument
/// naming the argument.
double parse_real(const std::string& flag, const std::string& token);

/// Formats an axis value: the label when given, otherwise "%g".
std::string format_axis_value(const AxisValue& v);

const char* topology_kind_name(TopologyKind kind);
const char* protocol_name(ProtocolKind kind);

}  // namespace ftgcs::exp
