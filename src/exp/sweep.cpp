#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "support/assert.h"

namespace ftgcs::exp {

namespace {

struct Task {
  std::vector<std::size_t> axis_index;  ///< value index per axis
  std::uint64_t seed = 1;
};

/// Row-major expansion over axes; seeds innermost, so per-seed rows of one
/// grid point stay adjacent.
std::vector<Task> expand_grid(const ScenarioSpec& spec) {
  for (const auto& axis : spec.axes) {
    FTGCS_EXPECTS(!axis.values.empty());
  }
  std::vector<Task> tasks;
  tasks.reserve(spec.num_tasks());
  std::vector<std::size_t> index(spec.axes.size(), 0);
  for (;;) {
    for (std::uint64_t seed : spec.seeds) {
      tasks.push_back({index, seed});
    }
    // Odometer increment, last axis fastest.
    std::size_t axis = spec.axes.size();
    while (axis > 0) {
      --axis;
      if (++index[axis] < spec.axes[axis].values.size()) break;
      index[axis] = 0;
      if (axis == 0) return tasks;
    }
    if (spec.axes.empty()) return tasks;
  }
}

RunResult execute(const ScenarioSpec& base, const Task& task,
                  std::size_t task_index, std::size_t num_tasks,
                  double& wall_ms) {
  ScenarioSpec spec = base;
  // Each task owns its private trace file — sweep tasks run concurrently
  // and a single stream would interleave. A lone task keeps the exact
  // path so `--trace out.ftr` means what it says for single runs.
  if (!spec.trace_path.empty() && num_tasks > 1) {
    spec.trace_path += ".task" + std::to_string(task_index);
  }
  // Same per-task isolation for the metrics series (and its .profile
  // sidecar, which run_ftgcs derives from this path).
  if (!spec.metrics_path.empty() && num_tasks > 1) {
    spec.metrics_path += ".task" + std::to_string(task_index);
  }
  std::vector<std::pair<std::string, std::string>> point;
  point.reserve(base.axes.size());
  for (std::size_t a = 0; a < base.axes.size(); ++a) {
    const SweepAxis& axis = base.axes[a];
    const AxisValue& value = axis.values[task.axis_index[a]];
    apply_axis(spec, axis.name, value.value);
    point.emplace_back(axis.name, format_axis_value(value));
  }
  const auto t0 = std::chrono::steady_clock::now();
  RunResult result = run_point(spec, task.seed);
  const auto t1 = std::chrono::steady_clock::now();
  wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.scenario = base.name;
  result.point = std::move(point);
  result.monitor.stats.first.task = task_index;
  return result;
}

/// Collapses the per-seed rows of one grid point into a single row: count
/// metrics (violations/messages/events) sum, everything else takes the max.
RunResult reduce_worst(const std::vector<const RunResult*>& group) {
  FTGCS_EXPECTS(!group.empty());
  RunResult out = *group.front();
  for (std::size_t i = 1; i < group.size(); ++i) {
    const RunResult& next = *group[i];
    FTGCS_EXPECTS(next.metrics.size() == out.metrics.size());
    for (std::size_t m = 0; m < out.metrics.size(); ++m) {
      auto& [name, value] = out.metrics[m];
      const double other = next.metrics[m].second;
      if (name == "violations" || name == "messages" || name == "events") {
        value += other;
      } else if (name.rfind("in_", 0) == 0) {
        value = std::min(value, other);  // a bound holds only if it always holds
      } else {
        value = std::max(value, other);
      }
    }
  }
  out.seed = 0;
  return out;
}

}  // namespace

SweepResult SweepRunner::run(const ScenarioSpec& spec) const {
  const std::vector<Task> tasks = expand_grid(spec);
  FTGCS_EXPECTS(!tasks.empty());

  std::vector<RunResult> results(tasks.size());
  std::vector<double> wall_ms(tasks.size(), 0.0);
  const int threads = std::max(
      1, std::min<int>(options_.threads, static_cast<int>(tasks.size())));

  if (threads == 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      results[i] = execute(spec, tasks[i], i, tasks.size(), wall_ms[i]);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int w = 0; w < threads; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= tasks.size() || failed.load()) return;
          try {
            results[i] = execute(spec, tasks[i], i, tasks.size(), wall_ms[i]);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  SweepResult sweep;
  sweep.scenario = spec.name;
  for (const auto& axis : spec.axes) sweep.axis_names.push_back(axis.name);

  const auto task_events = [&results](std::size_t i) {
    return results[i].has_metric("events") ? results[i].metric("events")
                                           : 0.0;
  };
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    sweep.total_wall_ms += wall_ms[i];
    sweep.total_events += task_events(i);
    sweep.merge(results[i]);
  }

  const auto row_timing = [&](std::size_t first_task, std::size_t n_tasks) {
    SweepResult::RowTiming t;
    double events = 0.0;
    for (std::size_t i = first_task; i < first_task + n_tasks; ++i) {
      t.wall_ms += wall_ms[i];
      events += task_events(i);
    }
    t.events_per_sec = t.wall_ms > 0.0 ? events / (t.wall_ms / 1000.0) : 0.0;
    return t;
  };

  if (spec.aggregation == SeedAggregation::kWorstOverSeeds &&
      spec.seeds.size() > 1) {
    // Seeds are innermost, so each grid point's rows are contiguous.
    const std::size_t stride = spec.seeds.size();
    for (std::size_t start = 0; start < results.size(); start += stride) {
      std::vector<const RunResult*> group;
      for (std::size_t s = 0; s < stride; ++s) {
        group.push_back(&results[start + s]);
      }
      sweep.rows.push_back(reduce_worst(group));
      if (options_.timing) sweep.timing.push_back(row_timing(start, stride));
    }
  } else {
    if (spec.seeds.size() > 1) sweep.axis_names.push_back("seed");
    if (options_.timing) {
      for (std::size_t i = 0; i < results.size(); ++i) {
        sweep.timing.push_back(row_timing(i, 1));
      }
    }
    sweep.rows = std::move(results);
  }

  if (!spec.columns.empty()) {
    sweep.columns = spec.columns;
  } else if (!sweep.rows.empty()) {
    for (const auto& [name, value] : sweep.rows.front().metrics) {
      sweep.columns.push_back(name);
    }
  }
  return sweep;
}

}  // namespace ftgcs::exp
