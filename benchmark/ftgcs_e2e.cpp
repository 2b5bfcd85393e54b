// ftgcs_e2e — the driver of the repository benchmark (see README.md here).
//
// One process runs ONE repetition of one workload and prints one JSON
// object on stdout; run_bench.py starts a fresh process per repetition,
// interleaves workloads and aggregates. Modes:
//
//   product  The user's path: every group through exp::SweepRunner::run,
//            exactly what `ftgcs_bench sweep` executes. Afterwards a setup
//            probe per task: the same spec with horizon_rounds shrunk to
//            1e-6, through exp::run_point, so the whole setup path is
//            timed without touching src/.
//   traced   The same tasks through the public calls exp::run_resolved
//            makes, in the same order, each wrapped in a steady_clock span
//            recorded from here (one buffer per pool thread). Sharded tasks
//            also get an obs::PhaseProfiler for per-shard merge/run/wait.
//   pins     The same tasks through exp::run_point, one at a time: the
//            fingerprints pins.json stores.
//
// Usage:
//   ftgcs_e2e <product|traced|pins> [--seed N] [--scratch DIR] [--capture]
//             [--setup-probes K] [--spans FILE] -- <group>...
// A group is `<scenario> [axis=v1,v2,...]... [shards=T] [threads=N]`; a
// bare word starts the next group. A named axis replaces the registered
// axis of that name. Every task runs per seed (the worst-over-seeds
// reduction is presentation only), so each task has its own fingerprint.
// Benchmark seed N maps each registered seed s to s + 1000·(N − 1), so
// N = 1 runs the registered seeds. --capture writes each group's --trace
// and --metrics files into --scratch.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clocks/drift_model.h"
#include "core/ftgcs_system.h"
#include "exp/registry.h"
#include "exp/run.h"
#include "exp/sweep.h"
#include "exp/topology_graph.h"
#include "gcs/gcs_system.h"
#include "metrics/skew_tracker.h"
#include "net/augmented.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/sampler.h"
#include "par/partition.h"
#include "par/sharded_system.h"
#include "trace/collector.h"
#include "trace/monitor.h"

namespace {

using namespace ftgcs;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- JSON output -------------------------------------------------------------

std::string json_number(double v) {
  std::string out;
  obs::append_json_double(out, v);  // %.17g: doubles round-trip exactly
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Builds one JSON object, keys in insertion order.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += json_string(key) + ":" + json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + items[i];
  }
  return out + "]";
}

// ---- workload description ----------------------------------------------------

struct Group {
  exp::ScenarioSpec spec;
  int threads = 1;
};

struct Task {
  exp::ScenarioSpec spec;  ///< axes applied, per-task capture paths set
  std::uint64_t seed = 1;
  std::string label;
};

struct Options {
  std::string mode;
  std::uint64_t seed = 1;
  std::string scratch = ".";
  bool capture = false;
  int setup_probes = 3;
  std::string spans_path;
  std::vector<Group> groups;
};

std::vector<exp::AxisValue> parse_values(const std::string& text) {
  std::vector<exp::AxisValue> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    values.push_back(exp::AxisValue::of(std::stod(text.substr(start, comma - start))));
    start = comma + 1;
  }
  return values;
}

void add_token(Group& group, const std::string& token) {
  const std::size_t eq = token.find('=');
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  if (key == "threads") {
    group.threads = std::stoi(value);
    if (group.threads < 1) throw std::invalid_argument("threads must be >= 1");
  } else if (key == "shards") {
    group.spec.shards = std::stoi(value);
    if (group.spec.shards < 1) throw std::invalid_argument("shards must be >= 1");
  } else {
    exp::SweepAxis axis{key, parse_values(value)};
    exp::ScenarioSpec probe = group.spec;  // reject unknown axes up front
    exp::apply_axis(probe, axis.name, axis.values.front().value);
    auto& axes = group.spec.axes;
    const auto same = std::find_if(axes.begin(), axes.end(), [&](const auto& a) {
      return a.name == axis.name;
    });
    if (same != axes.end()) {
      *same = std::move(axis);
    } else {
      axes.push_back(std::move(axis));
    }
  }
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Options opt;
  opt.mode = argv[1];
  if (opt.mode != "product" && opt.mode != "traced" && opt.mode != "pins") {
    throw std::invalid_argument("unknown mode '" + opt.mode + "'");
  }
  int i = 2;
  const auto next = [&]() -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument("missing option value");
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      ++i;
      break;
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::stoll(next()));
    } else if (arg == "--scratch") {
      opt.scratch = next();
    } else if (arg == "--capture") {
      opt.capture = true;
    } else if (arg == "--setup-probes") {
      opt.setup_probes = std::stoi(next());
    } else if (arg == "--spans") {
      opt.spans_path = next();
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  for (; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.find('=') != std::string::npos) {
      if (opt.groups.empty()) throw std::invalid_argument("axis before scenario");
      add_token(opt.groups.back(), token);
      continue;
    }
    const exp::ScenarioSpec* found = exp::Registry::instance().find(token);
    if (found == nullptr) {
      throw std::invalid_argument("unknown scenario '" + token + "'");
    }
    opt.groups.push_back({*found, 1});
  }
  if (opt.groups.empty()) throw std::invalid_argument("no workload groups");

  for (std::size_t g = 0; g < opt.groups.size(); ++g) {
    exp::ScenarioSpec& spec = opt.groups[g].spec;
    spec.aggregation = exp::SeedAggregation::kPerSeed;
    for (std::uint64_t& s : spec.seeds) s += 1000 * (opt.seed - 1);
    if (opt.capture) {
      const std::string stem = opt.scratch + "/g" + std::to_string(g);
      spec.trace_path = stem + ".ftr";
      spec.metrics_path = stem + ".jsonl";
    }
  }
  return opt;
}

/// The task list in exp::SweepRunner's order (axes row-major, last axis
/// fastest, seeds innermost), with the runner's per-task capture suffix.
std::vector<Task> expand_tasks(const exp::ScenarioSpec& base) {
  std::vector<Task> tasks;
  const std::size_t total = base.num_tasks();
  std::vector<std::size_t> index(base.axes.size(), 0);
  for (std::size_t point = 0; point < base.num_points(); ++point) {
    exp::ScenarioSpec spec = base;
    std::string label = base.name + "[";
    for (std::size_t a = 0; a < base.axes.size(); ++a) {
      const exp::AxisValue& value = base.axes[a].values[index[a]];
      exp::apply_axis(spec, base.axes[a].name, value.value);
      label += (a > 0 ? "," : "") + base.axes[a].name + "=" +
               exp::format_axis_value(value);
    }
    label += "]";
    for (std::uint64_t seed : base.seeds) {
      Task task{spec, seed, label + "#" + std::to_string(seed)};
      if (total > 1) {
        const std::string suffix = ".task" + std::to_string(tasks.size());
        if (!task.spec.trace_path.empty()) task.spec.trace_path += suffix;
        if (!task.spec.metrics_path.empty()) task.spec.metrics_path += suffix;
      }
      tasks.push_back(std::move(task));
    }
    for (std::size_t a = base.axes.size(); a-- > 0;) {
      if (++index[a] < base.axes[a].values.size()) break;
      index[a] = 0;
    }
  }
  return tasks;
}

/// Tasks that plant more faulty members per cluster than the budget f (or
/// i.i.d. faults, which can): their monitors are expected to fire.
bool over_budget(const exp::ScenarioSpec& spec) {
  if (spec.protocol != exp::ProtocolKind::kFtGcs || !spec.faults.active()) {
    return false;
  }
  if (spec.faults.mode == exp::FaultMode::kIid) return true;
  const int count = spec.faults.count >= 0 ? spec.faults.count : spec.params.f;
  return count > spec.params.f;
}

// ---- fingerprints --------------------------------------------------------------

/// The deterministic outputs of one task that every repetition must repeat.
struct Fingerprint {
  std::string task;
  bool ftgcs = true;  ///< the GCS baseline has no messages/violations/intra
  double events = 0.0;
  double messages = 0.0;
  double violations = 0.0;
  double max_local = 0.0;
  double max_global = 0.0;
  double max_intra = 0.0;
  double monitor_probes = 0.0;
  double monitor_violations = 0.0;
  double trace_records = 0.0;
  double trace_bytes = 0.0;
  double series_bytes = 0.0;
  bool over_budget = false;

  std::string json() const {
    JsonObject o;
    o.str("task", task).num("events", events);
    if (ftgcs) {
      o.num("messages", messages).num("violations", violations);
    }
    o.num("max_local", max_local).num("max_global", max_global);
    if (ftgcs) o.num("max_intra", max_intra);
    o.num("monitor_probes", monitor_probes)
        .num("monitor_violations", monitor_violations)
        .num("trace_records", trace_records)
        .num("trace_bytes", trace_bytes)
        .num("series_bytes", series_bytes)
        .raw("over_budget", over_budget ? "true" : "false");
    return o.done();
  }
};

Fingerprint fingerprint_of(const exp::RunResult& r, const Task& task) {
  Fingerprint fp;
  fp.task = task.label;
  fp.ftgcs = task.spec.protocol == exp::ProtocolKind::kFtGcs;
  fp.events = r.metric("events");
  if (fp.ftgcs) {
    fp.messages = r.metric("messages");
    fp.violations = r.metric("violations");
    fp.max_intra = r.metric("max_intra");
  }
  fp.max_local = r.metric("max_local");
  fp.max_global = r.metric("max_global");
  fp.monitor_probes = static_cast<double>(r.monitor.stats.probes);
  fp.monitor_violations = static_cast<double>(r.monitor.stats.violations);
  fp.trace_records = r.trace.records;
  fp.trace_bytes = r.trace.bytes;
  fp.series_bytes = r.series.bytes;
  fp.over_budget = over_budget(task.spec);
  return fp;
}

std::string fingerprints_json(const std::vector<Fingerprint>& fps) {
  std::vector<std::string> items;
  for (const Fingerprint& fp : fps) items.push_back(fp.json());
  return json_array(items);
}

// ---- deterministic layer counts --------------------------------------------------

/// Engine and shard counters summed over tasks (occupancy figures: max).
struct Counts {
  double narrow_events = 0.0;
  double wide_events = 0.0;
  double group_inserts = 0.0;
  double unordered_events = 0.0;
  double ordered_run_events = 0.0;
  double reseeds = 0.0;
  double rung_spawns = 0.0;
  double overflow_peak = 0.0;
  double windows = 0.0;
  double cut_edges = 0.0;
  double mailbox_peak = 0.0;

  void add_queue(double narrow, double wide, double groups, double unordered,
                 double ordered, double reseed, double rungs, double peak) {
    narrow_events += narrow;
    wide_events += wide;
    group_inserts += groups;
    unordered_events += unordered;
    ordered_run_events += ordered;
    reseeds += reseed;
    rung_spawns += rungs;
    overflow_peak = std::max(overflow_peak, peak);
  }
  void add_shard(double win, double cut, double peak) {
    windows += win;
    cut_edges = std::max(cut_edges, cut);
    mailbox_peak = std::max(mailbox_peak, peak);
  }

  JsonObject json() const {
    JsonObject o;
    o.num("narrow_events", narrow_events)
        .num("wide_events", wide_events)
        .num("group_inserts", group_inserts)
        .num("unordered_events", unordered_events)
        .num("ordered_run_events", ordered_run_events)
        .num("reseeds", reseeds)
        .num("rung_spawns", rung_spawns)
        .num("overflow_peak", overflow_peak)
        .num("windows", windows)
        .num("cut_edges", cut_edges)
        .num("mailbox_peak", mailbox_peak);
    return o;
  }
};

// ---- product mode ------------------------------------------------------------------

int run_product(const Options& opt) {
  std::vector<Fingerprint> fps;
  Counts counts;
  double events = 0.0;
  double task_wall_s = 0.0;
  double pool_capacity_s = 0.0;
  std::size_t tasks = 0;

  const Clock::time_point t0 = Clock::now();
  for (const Group& group : opt.groups) {
    const Clock::time_point g0 = Clock::now();
    const exp::SweepResult result =
        exp::SweepRunner({group.threads, true}).run(group.spec);
    const double group_wall = seconds_between(g0, Clock::now());
    const std::vector<Task> expanded = expand_tasks(group.spec);
    if (expanded.size() != result.rows.size()) {
      throw std::runtime_error("task expansion disagrees with SweepRunner");
    }
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      const exp::RunResult& row = result.rows[i];
      fps.push_back(fingerprint_of(row, expanded[i]));
      const auto& q = row.queue;
      counts.add_queue(q.narrow_events, q.wide_events, q.group_inserts,
                       q.unordered_events, q.ordered_run_events, q.reseeds,
                       q.rung_spawns, q.overflow_peak);
      counts.add_shard(row.shard.windows, row.shard.cut_edges,
                       row.shard.mailbox_peak);
    }
    events += result.total_events;
    task_wall_s += result.total_wall_ms / 1000.0;
    const int pool = std::min<int>(group.threads,
                                   static_cast<int>(expanded.size()));
    pool_capacity_s += pool * group_wall;
    tasks += expanded.size();
  }
  const double wall_s = seconds_between(t0, Clock::now());

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::vector<std::string> setup;
  for (int probe = 0; probe < opt.setup_probes; ++probe) {
    double total = 0.0;
    for (const Group& group : opt.groups) {
      for (Task& task : expand_tasks(group.spec)) {
        exp::apply_axis(task.spec, "horizon_rounds", 1e-6);
        const Clock::time_point s0 = Clock::now();
        exp::run_point(task.spec, task.seed);
        total += seconds_between(s0, Clock::now());
      }
    }
    setup.push_back(json_number(total));
  }

  JsonObject out;
  out.str("mode", "product")
      .num("wall_s", wall_s)
      .num("events", events)
      .num("tasks", static_cast<double>(tasks))
      .num("task_wall_s", task_wall_s)
      .num("pool_capacity_s", pool_capacity_s)
      .num("peak_rss_mb", peak_rss_mb)
      .raw("setup_s", json_array(setup))
      .raw("counts", counts.json().done())
      .raw("fingerprint", fingerprints_json(fps));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---- pins mode ------------------------------------------------------------------------

int run_pins(const Options& opt) {
  std::vector<Fingerprint> fps;
  for (const Group& group : opt.groups) {
    for (const Task& task : expand_tasks(group.spec)) {
      fps.push_back(fingerprint_of(exp::run_point(task.spec, task.seed), task));
    }
  }
  JsonObject out;
  out.str("mode", "pins").raw("fingerprint", fingerprints_json(fps));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---- spans ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int32_t parent = -1;  ///< index in the same buffer; −1 = root
  std::int32_t task = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One pool thread's spans, kept in memory until the run ends.
class SpanBuffer {
 public:
  explicit SpanBuffer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 16);
  }

  void set_task(int task) { task_ = task; }

  int begin(const char* name) {
    spans_.push_back({name, open_, task_, now_ns(), 0});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }

  void end(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    open_ = span.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::int32_t task_ = -1;
};

class Scoped {
 public:
  Scoped(SpanBuffer& buffer, const char* name)
      : buffer_(buffer), id_(buffer.begin(name)) {}
  ~Scoped() { buffer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanBuffer& buffer_;
  int id_;
};

// ---- traced mode ------------------------------------------------------------------------

/// What one traced task reports besides its spans.
struct TracedTask {
  Fingerprint fp;
  sim::EventQueue::TierStats tiers;
  bool sharded = false;
  par::ShardedFtGcsSystem::ShardStats shard;
  obs::PhaseProfiler::PhaseTotals phases;
  double imbalance = 0.0;
  double node_rounds = 0.0;  ///< horizon rounds × nodes (FT-GCS only)
};

// The same drift construction run.cpp performs (internal there).
std::unique_ptr<clocks::DriftModel> build_drift(const exp::DriftSpec& spec,
                                                const core::Params& params,
                                                int num_clusters,
                                                int members_per_cluster,
                                                std::uint64_t seed) {
  const double T = params.T;
  switch (spec.kind) {
    case exp::DriftKind::kSpreadConstant:
      return nullptr;
    case exp::DriftKind::kRandomConstant:
      return std::make_unique<clocks::ConstantDrift>(params.rho, seed, false);
    case exp::DriftKind::kRandomWalk:
      return std::make_unique<clocks::RandomWalkDrift>(
          params.rho, spec.step_rounds * T, spec.step_size, seed);
    case exp::DriftKind::kSinusoidal:
      return std::make_unique<clocks::SinusoidalDrift>(
          params.rho, spec.period_rounds * T, spec.step_rounds * T, seed);
    case exp::DriftKind::kSpatialSplit: {
      std::vector<int> group;
      for (int c = 0; c < num_clusters; ++c) {
        for (int i = 0; i < members_per_cluster; ++i) group.push_back(c);
      }
      const int boundary =
          std::max(1, static_cast<int>(spec.boundary_frac * num_clusters));
      return std::make_unique<clocks::SpatialSplitDrift>(
          params.rho, std::move(group), boundary, spec.flip_rounds * T);
    }
  }
  throw std::logic_error("unknown drift kind");
}

std::vector<double> sample_times(double horizon_rounds, double interval_rounds,
                                 double T) {
  std::vector<double> times;
  for (int i = 1; i * interval_rounds < horizon_rounds - 1e-9; ++i) {
    times.push_back(i * interval_rounds * T);
  }
  times.push_back(horizon_rounds * T);
  return times;
}

std::uint64_t events_of(core::FtGcsSystem& s) {
  return s.simulator().fired_events();
}
std::uint64_t events_of(const par::ShardedFtGcsSystem& s) {
  return s.fired_events();
}
std::uint64_t messages_of(core::FtGcsSystem& s) {
  return s.network().messages_sent();
}
std::uint64_t messages_of(const par::ShardedFtGcsSystem& s) {
  return s.messages_sent();
}
sim::Time now_of(core::FtGcsSystem& s) { return s.simulator().now(); }
sim::Time now_of(const par::ShardedFtGcsSystem& s) { return s.now(); }
sim::EventQueue::TierStats tiers_of(core::FtGcsSystem& s) {
  return s.simulator().queue_stats();
}
sim::EventQueue::TierStats tiers_of(const par::ShardedFtGcsSystem& s) {
  return s.queue_stats();
}
void window_diag(core::FtGcsSystem&, std::vector<obs::ShardWindowDiag>& out) {
  out.clear();
}
void window_diag(const par::ShardedFtGcsSystem& s,
                 std::vector<obs::ShardWindowDiag>& out) {
  s.shard_window_diag(out);
}

/// The probe loop and finish of exp::run_resolved's FT-GCS path.
/// `profiler_rows` mirrors the product's --metrics sidecar rows; a profiler
/// attached for attribution only (sharded, no --metrics) writes none.
template <class System>
void traced_measure(System& system, const exp::ResolvedRun& run,
                    const net::AugmentedTopology& topo,
                    trace::TraceCollector* collector,
                    obs::PhaseProfiler* profiler, bool profiler_rows,
                    SpanBuffer& sb, TracedTask& out) {
  const core::Params& params = run.params;
  std::unique_ptr<trace::InvariantMonitor> monitor;
  std::unique_ptr<obs::ProbeSampler> sampler;
  {
    Scoped span(sb, "exp.probe_setup");
    const int clusters = topo.num_clusters();
    const int diameter = run.graph.diameter();
    const double s_init = (clusters - 1) * run.gap_rounds * params.T;
    const double band = params.predicted_global_skew(diameter);
    const double intra_bound = params.intra_cluster_skew_bound();
    const net::UniformDelay delays(params.d, params.U);
    if (run.monitors) {
      trace::MonitorBounds bounds;
      bounds.intra_cluster = intra_bound;
      const double s_env = std::max(s_init, band);
      if (s_env > 0.0) {
        bounds.local_skew = params.predicted_local_skew(s_env) + intra_bound;
        bounds.global_skew = s_env + intra_bound;
        if (run.measure_m_lag) bounds.m_lag = s_env + intra_bound;
      }
      monitor = std::make_unique<trace::InvariantMonitor>(
          exp::build_topology_graph(topo, delays), bounds);
    }
    if (!run.metrics_path.empty()) {
      obs::ProbeSampler::Config config;
      config.path = run.metrics_path;
      config.monitors = monitor != nullptr;
      if (monitor != nullptr) config.bounds = monitor->bounds();
      config.measure_m_lag = run.measure_m_lag;
      const double scale = std::max(intra_bound, std::max(s_init, band));
      config.hist_scale = scale > 0.0 ? scale : 1.0;
      sampler = std::make_unique<obs::ProbeSampler>(
          std::move(config), exp::build_topology_graph(topo, delays));
      sampler->prewarm();
    }
  }

  metrics::SkewSample worst;
  core::SystemColumns columns;
  std::vector<obs::ShardWindowDiag> diag;
  for (double t : sample_times(run.horizon_rounds, run.probe_interval_rounds,
                               params.T)) {
    {
      Scoped span(sb, "sim.run_until");
      if (profiler_rows) profiler->span_begin("run");
      system.run_until(t);
      if (profiler_rows) profiler->span_end("run");
    }
    Scoped probe(sb, "exp.probe");
    if (profiler_rows) profiler->span_begin("collect");
    if (collector != nullptr) {
      Scoped span(sb, "trace.commit");
      collector->commit();
    }
    {
      Scoped span(sb, "metrics.snapshot");
      system.snapshot_columns(columns);
    }
    metrics::SkewSample skews;
    {
      Scoped span(sb, "metrics.measure_skews");
      skews = metrics::measure_skews(columns, topo);
    }
    worst.cluster_local = std::max(worst.cluster_local, skews.cluster_local);
    worst.cluster_global = std::max(worst.cluster_global, skews.cluster_global);
    worst.intra_cluster = std::max(worst.intra_cluster, skews.intra_cluster);
    double m_lag = 0.0;
    if (run.measure_m_lag) {
      Scoped span(sb, "metrics.m_lag");
      double lmax = 0.0;
      for (int id = 0; id < columns.num_nodes(); ++id) {
        if (columns.correct[static_cast<std::size_t>(id)]) {
          lmax = std::max(lmax, columns.logical[static_cast<std::size_t>(id)]);
        }
      }
      const sim::Time now = now_of(system);
      for (int id = 0; id < topo.num_nodes(); ++id) {
        if (!system.is_correct(id)) continue;
        m_lag = std::max(m_lag, lmax - system.node(id).max_estimate(now));
      }
    }
    if (monitor != nullptr) {
      Scoped span(sb, "trace.monitor_observe");
      trace::MonitorCursor cursor;
      cursor.at = t;
      cursor.events = events_of(system);
      cursor.trace_records = collector != nullptr ? collector->records() : 0;
      cursor.trace_offset =
          collector != nullptr ? collector->cursor_offset() : 0;
      monitor->observe(columns, cursor);
      if (run.measure_m_lag) monitor->observe_m_lag(m_lag, cursor);
    }
    if (sampler != nullptr || profiler_rows) {
      Scoped span(sb, "obs.sample");
      if (sampler != nullptr) {
        obs::SampleContext ctx;
        ctx.at = t;
        ctx.events = events_of(system);
        ctx.messages = messages_of(system);
        ctx.skews = &skews;
        ctx.columns = &columns;
        ctx.monitor = monitor.get();
        ctx.m_lag = m_lag;
        sampler->sample(ctx);
      }
      if (profiler_rows) {
        window_diag(system, diag);
        profiler->probe_diag(t, tiers_of(system), diag);
        profiler->span_end("collect");
      }
    }
  }

  Fingerprint& fp = out.fp;
  fp.events = static_cast<double>(events_of(system));
  fp.messages = static_cast<double>(messages_of(system));
  fp.violations = static_cast<double>(system.total_violations());
  fp.max_local = worst.cluster_local;
  fp.max_global = worst.cluster_global;
  fp.max_intra = worst.intra_cluster;
  if (monitor != nullptr) {
    fp.monitor_probes = static_cast<double>(monitor->stats().probes);
    fp.monitor_violations = static_cast<double>(monitor->stats().violations);
  }
  out.tiers = tiers_of(system);
  out.node_rounds = run.horizon_rounds * topo.num_nodes();

  if (sampler != nullptr) {
    Scoped span(sb, "obs.finish");
    sampler->finish();
    fp.series_bytes = static_cast<double>(sampler->bytes());
  }
  if (collector != nullptr) {
    Scoped span(sb, "trace.finish");
    collector->finish();
    fp.trace_records = static_cast<double>(collector->records());
    fp.trace_bytes = static_cast<double>(collector->bytes_written());
  }
  if (profiler != nullptr) {
    out.phases = profiler->totals();
    out.imbalance = profiler->imbalance();
    Scoped span(sb, "obs.finish");
    profiler->finish();
  }
}

void traced_ftgcs(const exp::ResolvedRun& run, const std::string& scratch,
                  int task_index, SpanBuffer& sb, TracedTask& out) {
  const core::Params& params = run.params;
  // Declared before the topology, collector and system, as in run.cpp:
  // parked shard workers touch their phase slots until the system joins.
  std::unique_ptr<obs::PhaseProfiler> profiler;
  const bool profiler_rows = !run.metrics_path.empty();
  if (profiler_rows) {
    profiler =
        std::make_unique<obs::PhaseProfiler>(run.metrics_path + ".profile");
    profiler->span_begin("setup");
  }

  std::unique_ptr<net::AugmentedTopology> topo;
  {
    Scoped span(sb, "net.topology_build");
    topo = std::make_unique<net::AugmentedTopology>(run.graph, params.k);
  }
  const int clusters = topo->num_clusters();

  std::unique_ptr<trace::TraceCollector> collector;
  if (!run.trace_path.empty()) {
    Scoped span(sb, "trace.open");
    collector = std::make_unique<trace::TraceCollector>(run.trace_path);
  }

  std::vector<int> offsets;
  if (run.gap_rounds > 0) {
    for (int c = 0; c < clusters; ++c) offsets.push_back(c * run.gap_rounds);
  }

  if (run.shards > 1) {
    par::ShardPlan plan;
    {
      Scoped span(sb, "par.plan");
      const net::UniformDelay delays(params.d, params.U);
      plan = par::make_shard_plan(exp::build_topology_graph(*topo, delays),
                                  run.shards);
    }
    if (!plan.degenerate()) {
      if (profiler == nullptr) {
        profiler = std::make_unique<obs::PhaseProfiler>(
            scratch + "/task" + std::to_string(task_index) + ".profile");
      }
      par::ShardedFtGcsSystem::Config config;
      config.params = params;
      config.seed = run.seed;
      config.engine = run.engine;
      config.replicas_know_offsets = run.replicas_know_offsets;
      config.fault_plan = run.fault_plan;
      config.cluster_round_offsets = offsets;
      config.shards = plan.num_shards;
      config.plan = std::move(plan);
      config.shared_topo = topo.get();
      if (run.drift.kind != exp::DriftKind::kSpreadConstant) {
        config.drift_factory = [&run, &params, clusters] {
          return build_drift(run.drift, params, clusters, params.k, run.seed);
        };
      }
      config.trace = collector.get();
      config.profiler = profiler.get();
      std::unique_ptr<par::ShardedFtGcsSystem> system;
      {
        Scoped span(sb, "core.system_build");
        system = std::make_unique<par::ShardedFtGcsSystem>(run.graph,
                                                           std::move(config));
      }
      {
        Scoped span(sb, "core.start");
        system->start();
      }
      if (profiler_rows) profiler->span_end("setup");
      traced_measure(*system, run, *topo, collector.get(), profiler.get(),
                     profiler_rows, sb, out);
      out.sharded = true;
      out.shard = system->shard_stats();
      return;
    }
  }

  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = run.seed;
  config.engine = run.engine;
  config.replicas_know_offsets = run.replicas_know_offsets;
  config.fault_plan = run.fault_plan;
  config.cluster_round_offsets = offsets;
  config.shared_topo = topo.get();
  if (collector != nullptr) config.trace_sink = collector->shard_sink(0);
  std::unique_ptr<core::FtGcsSystem> system;
  {
    Scoped span(sb, "core.system_build");
    config.drift_model =
        build_drift(run.drift, params, clusters, params.k, run.seed);
    system = std::make_unique<core::FtGcsSystem>(run.graph, std::move(config));
  }
  {
    Scoped span(sb, "core.start");
    system->start();
  }
  if (profiler_rows) profiler->span_end("setup");
  traced_measure(*system, run, *topo, collector.get(), profiler.get(),
                 profiler_rows, sb, out);
}

/// exp::run_resolved's plain-GCS baseline path.
void traced_gcs(const exp::ResolvedRun& run, SpanBuffer& sb, TracedTask& out) {
  const int n = run.graph.num_vertices();
  {
    Scoped span(sb, "exp.probe_setup");
    static_cast<void>(run.graph.diameter());
  }
  gcs::GcsSystem::Config config;
  config.engine = run.engine;
  const double mu = run.baseline_mu > 0.0 ? run.baseline_mu : 0.05;
  config.params = gcs::GcsParams::derive(run.params.rho, run.params.d,
                                         run.params.U, mu, run.params.d);
  config.seed = run.seed;
  if (run.fault_plan.size() > 0) {
    for (const auto& spec : run.fault_plan.specs()) {
      if (spec.node < n) config.pump_nodes.push_back(spec.node);
    }
    config.pump_rate = run.fault_plan.specs().front().param;
  }
  std::unique_ptr<gcs::GcsSystem> system;
  {
    Scoped span(sb, "core.system_build");
    config.drift_model = build_drift(run.drift, run.params, n, 1, run.seed);
    system = std::make_unique<gcs::GcsSystem>(run.graph, std::move(config));
  }
  {
    Scoped span(sb, "core.start");
    system->start();
  }
  double max_local = 0.0;
  double max_global = 0.0;
  for (double t : sample_times(run.horizon_rounds, run.probe_interval_rounds,
                               run.params.T)) {
    {
      Scoped span(sb, "sim.run_until");
      system->run_until(t);
    }
    Scoped probe(sb, "exp.probe");
    Scoped span(sb, "metrics.measure_skews");
    max_local = std::max(max_local, system->local_skew());
    max_global = std::max(max_global, system->global_skew());
  }
  out.fp.ftgcs = false;
  out.fp.events = static_cast<double>(system->simulator().fired_events());
  out.fp.max_local = max_local;
  out.fp.max_global = max_global;
  out.tiers = system->simulator().queue_stats();
}

void traced_task(const Task& task, int index, const std::string& scratch,
                 SpanBuffer& sb, TracedTask& out) {
  sb.set_task(index);
  Scoped root(sb, "exp.task");
  exp::ResolvedRun run;
  {
    Scoped span(sb, "exp.resolve");
    run = exp::resolve(task.spec, task.seed);
  }
  if (run.protocol == exp::ProtocolKind::kGcsBaseline) {
    traced_gcs(run, sb, out);
  } else {
    traced_ftgcs(run, scratch, index, sb, out);
  }
  out.fp.task = task.label;
  out.fp.over_budget = over_budget(task.spec);
}

/// Per span name: how often, how long in total, and self time (duration
/// minus the part its child spans cover).
struct SpanTotals {
  double count = 0.0;
  double total_s = 0.0;
  double self_s = 0.0;
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void write_spans(const std::string& path,
                 const std::vector<SpanBuffer>& buffers) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(file, "thread\ttask\tname\tparent\tstart_ns\tend_ns\n");
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    for (const Span& s : buffers[t].spans()) {
      std::fprintf(file, "%zu\t%d\t%s\t%d\t%lld\t%lld\n", t, s.task, s.name,
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

int run_traced(const Options& opt) {
  std::vector<Task> tasks;
  std::vector<std::size_t> group_of;
  for (std::size_t g = 0; g < opt.groups.size(); ++g) {
    for (Task& task : expand_tasks(opt.groups[g].spec)) {
      tasks.push_back(std::move(task));
      group_of.push_back(g);
    }
  }
  std::vector<TracedTask> results(tasks.size());
  const Clock::time_point origin = Clock::now();
  std::vector<SpanBuffer> buffers;

  std::size_t first = 0;
  for (std::size_t g = 0; g < opt.groups.size(); ++g) {
    std::size_t last = first;
    while (last < tasks.size() && group_of[last] == g) ++last;
    const int threads = std::max(
        1, std::min<int>(opt.groups[g].threads, static_cast<int>(last - first)));
    while (buffers.size() < static_cast<std::size_t>(threads)) {
      buffers.emplace_back(origin);
    }
    // The same pool discipline as exp::SweepRunner: workers pull the next
    // task index; the first exception stops the pool and is rethrown.
    std::atomic<std::size_t> next{first};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    const auto work = [&](SpanBuffer& sb) {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= last || failed.load()) return;
        try {
          traced_task(tasks[i], static_cast<int>(i), opt.scratch, sb,
                      results[i]);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true);
          return;
        }
      }
    };
    if (threads == 1) {
      work(buffers[0]);
    } else {
      std::vector<std::thread> pool;
      for (int w = 0; w < threads; ++w) {
        pool.emplace_back(work, std::ref(buffers[static_cast<std::size_t>(w)]));
      }
      for (std::thread& thread : pool) thread.join();
    }
    if (first_error) std::rethrow_exception(first_error);
    first = last;
  }
  const double wall_s = seconds_between(origin, Clock::now());

  // ---- aggregate spans ----
  std::vector<std::pair<std::string, SpanTotals>> by_name;
  const auto totals_for = [&by_name](const char* name) -> SpanTotals& {
    for (auto& [key, totals] : by_name) {
      if (key == name) return totals;
    }
    by_name.emplace_back(name, SpanTotals{});
    return by_name.back().second;
  };
  double task_root_s = 0.0;
  double task_attributed_s = 0.0;
  std::vector<double> probe_us;
  std::vector<double> run_until_s(tasks.size(), 0.0);
  for (const SpanBuffer& buffer : buffers) {
    const std::vector<Span>& spans = buffer.spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      SpanTotals& t = totals_for(s.name);
      t.count += 1.0;
      t.total_s += d;
      t.self_s += d - child_s[i];
      if (s.parent < 0) {
        task_root_s += d;
        task_attributed_s += child_s[i];
      }
      const std::string name = s.name;
      if (name == "exp.probe") probe_us.push_back(d * 1e6);
      if (name == "sim.run_until") {
        run_until_s[static_cast<std::size_t>(s.task)] += d;
      }
    }
  }

  // ---- engine counts + par attribution (the rest is in the fingerprints) ----
  std::vector<Fingerprint> fps;
  Counts counts;
  double overflow_pushes = 0.0;
  double entry_bytes = 0.0;
  double node_rounds = 0.0;
  double merge_s = 0.0;
  double busy_s = 0.0;
  double wait_s = 0.0;
  double sharded_run_until_s = 0.0;
  double imbalance = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TracedTask& r = results[i];
    fps.push_back(r.fp);
    const auto& q = r.tiers;
    counts.add_queue(static_cast<double>(q.narrow_events),
                     static_cast<double>(q.wide_events),
                     static_cast<double>(q.group_inserts),
                     static_cast<double>(q.unordered_events),
                     static_cast<double>(q.ordered_run_events),
                     static_cast<double>(q.reseeds),
                     static_cast<double>(q.rung_spawns),
                     static_cast<double>(q.overflow_peak));
    overflow_pushes += static_cast<double>(q.overflow_pushes);
    entry_bytes += static_cast<double>(q.entry_bytes());
    node_rounds += r.node_rounds;
    if (r.sharded) {
      counts.add_shard(static_cast<double>(r.shard.windows),
                       static_cast<double>(r.shard.cut_edges),
                       static_cast<double>(r.shard.mailbox_peak));
      merge_s += r.phases.merge_ms / 1000.0;
      busy_s += r.phases.run_ms / 1000.0;
      wait_s += r.phases.collect_ms / 1000.0;
      sharded_run_until_s += run_until_s[i];
      imbalance = std::max(imbalance, r.imbalance);
    }
  }

  JsonObject spans_json;
  for (const auto& [name, t] : by_name) {
    spans_json.raw(name, JsonObject()
                             .num("count", t.count)
                             .num("total_s", t.total_s)
                             .num("self_s", t.self_s)
                             .done());
  }
  JsonObject all_counts = counts.json();
  all_counts.num("overflow_pushes", overflow_pushes)
      .num("entry_bytes", entry_bytes)
      .num("node_rounds", node_rounds);
  JsonObject par_json;
  par_json.num("merge_s", merge_s)
      .num("busy_s", busy_s)
      .num("wait_s", wait_s)
      .num("imbalance", imbalance)
      .num("cpu_per_wall", sharded_run_until_s > 0.0
                               ? (merge_s + busy_s) / sharded_run_until_s
                               : 0.0);

  JsonObject out;
  out.str("mode", "traced")
      .num("wall_s", wall_s)
      .num("tasks", static_cast<double>(tasks.size()))
      .num("task_root_s", task_root_s)
      .num("task_attributed_s", task_attributed_s)
      .num("probes", static_cast<double>(probe_us.size()))
      .num("probe_p50_us", quantile(probe_us, 0.5))
      .num("probe_p99_us", quantile(probe_us, 0.99))
      .raw("spans", spans_json.done())
      .raw("counts", all_counts.done())
      .raw("par", par_json.done())
      .raw("fingerprint", fingerprints_json(fps));
  if (!opt.spans_path.empty()) write_spans(opt.spans_path, buffers);
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  exp::register_builtin_scenarios();
  try {
    const Options opt = parse_options(argc, argv);
    if (opt.mode == "product") return run_product(opt);
    if (opt.mode == "traced") return run_traced(opt);
    return run_pins(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftgcs_e2e: %s\n", e.what());
    return 1;
  }
}
