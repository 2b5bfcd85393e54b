// Parallel sweep execution.
//
// SweepRunner expands a ScenarioSpec's axis grid × seed list into a flat
// task list (row-major over axes, seeds innermost), fans the tasks out over
// a std::thread pool, and collects the results back into grid order.
//
// Determinism: every task owns an independent Simulator (and RNG streams
// derived only from the task's seed), and each result lands in a pre-sized
// slot indexed by its task id — so the output is bit-identical at any
// thread count, which tests/test_exp_runner.cpp enforces.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "exp/run.h"
#include "exp/scenario.h"

namespace ftgcs::exp {

struct SweepResult {
  std::string scenario;
  /// Column names for the axis part of each row ("seed" included when rows
  /// are per-seed and more than one seed ran).
  std::vector<std::string> axis_names;
  /// Metric names the table sink prints (the scenario's `columns`, or every
  /// metric when the scenario did not choose).
  std::vector<std::string> columns;
  std::vector<RunResult> rows;  ///< grid order, independent of thread count

  /// Wall-clock measurements. Populated per row only when
  /// SweepOptions::timing is set (timing is machine-dependent, so it is
  /// kept out of the deterministic metric schema); totals are always
  /// filled. events_per_sec relates the row's simulated "events" metric to
  /// its wall time.
  struct RowTiming {
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
  };
  std::vector<RowTiming> timing;  ///< parallel to rows; empty if disabled
  double total_wall_ms = 0.0;     ///< sum of task wall times
  double total_events = 0.0;      ///< sum of simulated events over tasks

  /// Queue-tier diagnostics aggregated over tasks (maxima for occupancy
  /// figures, sums for event counters). Deterministic but
  /// engine-dependent, so they are reported in the `--timing` footer and
  /// never mixed into the metric tables.
  struct QueueTierTotals {
    double max_bucket_count = 0.0;
    double rung_spawns = 0.0;
    double max_overflow_peak = 0.0;
    double reseeds = 0.0;
    // Batch-channel run lengths, summed over tasks (and shards within a
    // sharded task): how much fired traffic bypassed per-event dispatch
    // (ordered_run_events) and how much of that additionally bypassed the
    // drain sort via the time-partitioned drain (unordered_events).
    double unordered_runs = 0.0;
    double unordered_events = 0.0;
    double ordered_run_events = 0.0;
    // Bytes-per-event split, summed over tasks: how many scheduled
    // deliveries took the 16 B narrow fast-path lane vs the 32 B wide
    // entry, and how many coalesced broadcast groups carried them.
    double narrow_events = 0.0;
    double wide_events = 0.0;
    double group_inserts = 0.0;
    /// Largest ladder lane footprint of any task (bytes), and that
    /// task's non-empty lanes and live events at its peak.
    double max_lane_peak_bytes = 0.0;
    double max_lane_peak_lanes = 0.0;
    double max_lane_peak_live = 0.0;
  };
  QueueTierTotals queue;

  /// Sharded-backend diagnostics aggregated over tasks (maxima for
  /// geometry/occupancy, sums for window counts) — `--timing` footer
  /// material, like the queue tiers. All zero when no task ran sharded.
  struct ShardTotals {
    double shards = 0.0;          ///< max effective shard count
    double max_cut_edges = 0.0;
    double min_cut_delay = 0.0;   ///< min over sharded tasks
    double windows = 0.0;         ///< sum
    double max_mailbox_peak = 0.0;
  };
  ShardTotals shard;

  /// Online invariant-monitor aggregates over tasks — maxima for observed
  /// skews, minima for bound margins (how close the worst task came to its
  /// bound; +inf when that invariant was disabled in every monitored
  /// task), and the FIRST violating task's flag verbatim. `--timing`
  /// footer material, like the diagnostics above.
  struct MonitorTotals {
    double rows = 0.0;        ///< tasks that ran with monitors on
    double probes = 0.0;      ///< sum
    double violations = 0.0;  ///< sum of probe × invariant exceedances
    double max_local_skew = 0.0;
    double max_global_skew = 0.0;
    double max_intra = 0.0;
    double max_m_lag = 0.0;
    double min_local_margin = std::numeric_limits<double>::infinity();
    double min_global_margin = std::numeric_limits<double>::infinity();
    double min_intra_margin = std::numeric_limits<double>::infinity();
    bool has_violation = false;
    std::size_t first_task = 0;  ///< task index of `first`
    trace::Violation first;      ///< valid iff has_violation
  };
  MonitorTotals monitor;

  /// Trace-capture totals over tasks (all zero when tracing was off).
  struct TraceTotals {
    double files = 0.0;
    double records = 0.0;
    double bytes = 0.0;
  };
  TraceTotals trace;

  /// Deterministic metrics-series totals over tasks (all zero when
  /// `--metrics` was off). Deterministic themselves: probe/byte counts
  /// are identical across engines and shard counts.
  struct SeriesTotals {
    double files = 0.0;
    double probes = 0.0;
    double bytes = 0.0;
  };
  SeriesTotals series;

  /// Phase-profiler totals over tasks (wall clock — footer material).
  /// `shards`/`max_imbalance` are maxima, the phase times are sums.
  struct ProfileTotals {
    double rows = 0.0;    ///< tasks that ran with the profiler on
    double shards = 0.0;  ///< max bound shard count (0 = all unsharded)
    double merge_ms = 0.0;
    double run_ms = 0.0;
    double wait_ms = 0.0;
    double max_imbalance = 0.0;
  };
  ProfileTotals profile;
};

struct SweepOptions {
  int threads = 1;     ///< worker threads; clamped to [1, #tasks]
  bool timing = false; ///< emit per-row wall_ms / events_per_sec columns
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  /// Runs the full grid of `spec` and aggregates per its SeedAggregation.
  SweepResult run(const ScenarioSpec& spec) const;

 private:
  SweepOptions options_;
};

}  // namespace ftgcs::exp
