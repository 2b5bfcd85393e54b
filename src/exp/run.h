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
#include "obs/phase_profiler.h"
#include "obs/sampler.h"
#include "par/sharded_system.h"
#include "sim/backend.h"
#include "sim/event_queue.h"
#include "trace/collector.h"
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
  /// Unread; benchmark/ftgcs_e2e.cpp still sets it (see sim/backend.h).
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
  /// tracing off). FT-GCS runs only; the baselines ignore it.
  std::string trace_path;
  /// Deterministic metrics series: JSONL path (empty = off) + the
  /// PATH.profile wall-clock sidecar. FT-GCS runs only.
  std::string metrics_path;
  /// Online invariant monitors (default ON; probe-tier cost only).
  bool monitors = true;
};

/// Run diagnostics, kept out of `metrics` so every sink's table stays
/// bit-identical across `--shards`, `--no-monitors` and the
/// capture flags; the `--timing` footer, the `.profile` sidecar and the
/// sweep totals render them instead. Each member is its producer's own
/// stats struct, whose field table (support/stat_table.h) declares every
/// stat's name, merge and plane once.
struct Diagnostics {
  sim::EventQueue::TierStats queue;
  par::ShardedFtGcsSystem::ShardStats shard;  ///< defaults when unsharded
  trace::MonitorReport monitor;               ///< defaults when off
  trace::TraceCollector::Stats trace;         ///< zero when not tracing
  obs::ProbeSampler::Stats series;            ///< zero without --metrics
  obs::PhaseProfiler::PhaseTotals profile;    ///< zero without --metrics

  /// Folds one more task in (support::Scope::kTasks).
  void merge(const Diagnostics& task);
};

/// Calls f(parts...) for each stats struct of Diagnostics, with the
/// matching member of each `d` (one Diagnostics to render, two to merge).
template <class F, class... D>
void for_each_stats(F&& f, D&... d) {
  f(d.queue...);
  f(d.shard...);
  f(d.monitor.stats...);
  f(d.monitor...);
  f(d.trace...);
  f(d.series...);
  f(d.profile...);
}

/// One completed run: the axis assignments that produced it, an ordered
/// metric list (fixed schema; see run.cpp for the catalogue) and the
/// run's diagnostics.
struct RunResult : Diagnostics {
  std::string scenario;
  /// (axis name, display value) pairs, in grid order.
  std::vector<std::pair<std::string, std::string>> point;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> metrics;

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
