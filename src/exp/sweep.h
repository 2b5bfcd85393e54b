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

#include <string>
#include <vector>

#include "exp/run.h"
#include "exp/scenario.h"

namespace ftgcs::exp {

/// A sweep's rows plus its diagnostics: the Diagnostics members merged
/// over every task (before any worst-over-seeds row reduction).
struct SweepResult : Diagnostics {
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
