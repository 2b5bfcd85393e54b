// Scenario execution: resolve a concrete ScenarioSpec + seed into a
// ResolvedRun (built Params/Graph/FaultPlan), simulate it on a private
// Simulator, and measure a fixed schema of metrics.
//
// Everything here is deliberately free of shared state: one call = one
// simulator = one result, so a sweep runner can execute resolved runs from
// any thread and the metrics depend only on the spec and the seed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "byz/fault_plan.h"
#include "core/params.h"
#include "exp/scenario.h"
#include "net/graph.h"
#include "trace/monitor.h"

namespace ftgcs::exp {

/// A fully concrete run: specs resolved against the derived Params. Still a
/// value type (the drift model is built inside run_resolved).
struct ResolvedRun {
  core::Params params;
  net::Graph graph{1};
  /// graph.diameter(), computed once by whoever builds the graph (an
  /// all-pairs BFS — too costly to repeat per consumer).
  int diameter = 0;
  ProtocolKind protocol = ProtocolKind::kFtGcs;
  sim::QueueBackend engine = sim::QueueBackend::kLadder;
  /// Conservative-parallel shard count (1 = single simulator). The
  /// effective count can be lower — see par::make_shard_plan.
  int shards = 1;
  DriftSpec drift;
  byz::FaultPlan fault_plan;
  /// kGcsBaseline fast-mode speedup (from ParamsSpec::mu; 0 → 0.05). The
  /// derived params.mu is the FT-GCS value and differs by ~50x.
  double baseline_mu = 0.0;
  int gap_rounds = 0;
  double horizon_rounds = 0.0;
  double probe_interval_rounds = 0.25;
  double steady_after_rounds = 0.0;
  bool measure_m_lag = false;
  bool replicas_know_offsets = true;
  std::uint64_t seed = 1;
  /// Streaming trace capture: path of the .ftr file to write (empty =
  /// tracing off). FT-GCS runs only; the GCS baseline ignores it.
  std::string trace_path;
  /// Deterministic metrics series: JSONL path (empty = off) + the
  /// PATH.profile wall-clock sidecar. FT-GCS runs only.
  std::string metrics_path;
  /// Online invariant monitors (default ON; probe-tier cost only).
  bool monitors = true;
};

/// One completed run: the axis assignments that produced it plus an ordered
/// metric list (fixed schema; see run.cpp for the catalogue).
struct RunResult {
  std::string scenario;
  /// (axis name, display value) pairs, in grid order.
  std::vector<std::pair<std::string, std::string>> point;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  /// Event-queue tier diagnostics of the run's simulator. Deterministic,
  /// but engine-dependent — kept out of `metrics` so every sink's output
  /// stays bit-identical between `--engine heap` and `--engine ladder`;
  /// the `--timing` footer aggregates them instead.
  struct QueueTiers {
    double bucket_count = 0.0;   ///< widest calendar window built
    double rung_spawns = 0.0;    ///< overflowing buckets split on drain
    double overflow_peak = 0.0;  ///< overflow-tier occupancy high-water mark
    double reseeds = 0.0;        ///< windows rebuilt from the overflow tier
    // Batch-channel run lengths: events drained in sorted batch runs vs
    // through the time-partitioned (unordered, below-horizon) drain.
    double unordered_runs = 0.0;    ///< partitioned drains that emitted
    double unordered_events = 0.0;  ///< events drained below the horizon
    double ordered_run_events = 0.0;  ///< events drained in sorted runs
    // Bytes-per-event split (EventQueue narrow delivery lane).
    double narrow_events = 0.0;   ///< 16 B narrow deliveries scheduled
    double wide_events = 0.0;     ///< 32 B entries scheduled
    double group_inserts = 0.0;   ///< coalesced fan-out groups created
    double lane_peak_bytes = 0.0;  ///< ladder lane storage high-water (B)
    double lane_peak_lanes = 0.0;  ///< non-empty lanes at that high-water
    double lane_peak_live = 0.0;   ///< live events at that high-water
  };
  QueueTiers queue;

  /// Sharded-backend diagnostics (kept out of `metrics` for the same
  /// reason: tables stay bit-identical at every `--shards T`, so the
  /// partition geometry is `--timing` footer material, not a metric).
  /// All zero when the run used the single-simulator engine.
  struct ShardDiag {
    double shards = 0.0;         ///< effective shard count (0 = unsharded)
    double cut_edges = 0.0;      ///< directed node edges crossing the cut
    double min_cut_delay = 0.0;  ///< conservative lookahead (d − u)
    double windows = 0.0;        ///< safe windows executed
    double mailbox_peak = 0.0;   ///< max cross-shard merge at one barrier
  };
  ShardDiag shard;

  /// Online invariant-monitor report. Footer material for the same reason
  /// as the diagnostics above: the monitors observe the same ground truth
  /// on every backend, but their report stays out of `metrics` so the
  /// tables cannot change shape when monitors are toggled.
  struct MonitorReport {
    bool enabled = false;
    trace::MonitorBounds bounds;
    trace::InvariantMonitor::Stats stats;
  };
  MonitorReport monitor;

  /// Trace-capture summary (all zero when tracing was off).
  struct TraceInfo {
    bool enabled = false;
    std::string path;
    double records = 0.0;
    double bytes = 0.0;
  };
  TraceInfo trace;

  /// Deterministic metrics-series summary (all zero when --metrics was
  /// off). `probes`/`bytes` are themselves deterministic: the series is
  /// byte-identical across engines and shard counts.
  struct SeriesInfo {
    bool enabled = false;
    std::string path;
    double probes = 0.0;
    double bytes = 0.0;
  };
  SeriesInfo series;

  /// Wall-clock phase-profiler summary (PATH.profile sidecar). Timing is
  /// machine-dependent — footer material only, never a metric. Phase
  /// totals stay zero for unsharded runs (spans still cover setup/run/
  /// collect).
  struct ProfileInfo {
    bool enabled = false;
    double shards = 0.0;
    double merge_ms = 0.0;
    double run_ms = 0.0;
    double wait_ms = 0.0;
    double imbalance = 0.0;  ///< max/mean per-shard run-phase time
  };
  ProfileInfo profile;

  bool has_metric(const std::string& name) const;
  double metric(const std::string& name) const;  ///< aborts if missing
  void set_metric(const std::string& name, double value);
};

/// Resolves spec (with axes already applied) + seed. The initial global skew
/// needed by HorizonSpec is the analytic ramp height (|C|−1)·gap·T.
ResolvedRun resolve(const ScenarioSpec& spec, std::uint64_t seed);

/// Simulates one resolved run and measures metrics.
RunResult run_resolved(const ResolvedRun& run);

/// resolve() + run_resolved().
RunResult run_point(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace ftgcs::exp
