// The `--timing` footer is the user-facing view of every run diagnostic:
// the monitors' margins against the paper's envelopes next to the queue,
// delivery, shard and capture counters. These goldens pin its deterministic lines
// (everything but the wall-clock throughput and `phases[...]` lines and
// the output paths), so a change to how a stat is merged across shards or
// tasks, or how it is printed, shows up here.
#include "exp/exp.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace ftgcs::exp {
namespace {

struct FooterCase {
  const char* scenario;
  std::vector<const char*> axes;  ///< `--axis` arguments
  int shards = 1;
  bool trace = false;
  bool metrics = false;
  bool monitors = true;
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ftgcs_footer_" + name;
}

ScenarioSpec spec_for(const FooterCase& c, const std::string& tag) {
  register_builtin_scenarios();
  const ScenarioSpec* found = Registry::instance().find(c.scenario);
  EXPECT_NE(found, nullptr) << c.scenario;
  ScenarioSpec spec = found != nullptr ? *found : ScenarioSpec{};
  for (const char* axis : c.axes) override_axis(spec, parse_axis(axis));
  spec.shards = c.shards;
  spec.monitors = c.monitors;
  if (c.trace) spec.trace_path = temp_path(tag + ".ftr");
  if (c.metrics) spec.metrics_path = temp_path(tag + ".jsonl");
  return spec;
}

void remove_outputs(const ScenarioSpec& spec, std::size_t tasks) {
  for (std::size_t i = 0; i < tasks; ++i) {
    const std::string suffix = tasks > 1 ? ".task" + std::to_string(i) : "";
    if (!spec.trace_path.empty()) {
      std::remove((spec.trace_path + suffix).c_str());
    }
    if (!spec.metrics_path.empty()) {
      std::remove((spec.metrics_path + suffix).c_str());
      std::remove((spec.metrics_path + suffix + ".profile").c_str());
    }
  }
}

void replace_all(std::string& text, const std::string& from,
                 const std::string& to) {
  if (from.empty()) return;
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
}

/// Runs the case and deletes whatever it wrote.
SweepResult run_case(const ScenarioSpec& spec) {
  SweepResult result = SweepRunner({2, true}).run(spec);
  remove_outputs(spec, spec.num_tasks());
  return result;
}

/// The footer with the machine-dependent parts masked: the throughput and
/// `phases[...]` lines are dropped, output paths read <trace>/<metrics>.
std::string masked_footer(const FooterCase& c, const std::string& tag) {
  const ScenarioSpec spec = spec_for(c, tag);
  const SweepResult result = run_case(spec);
  std::ostringstream os;
  write_timing_footer(result, spec, os);
  std::string text = os.str();
  replace_all(text, spec.trace_path, "<trace>");
  replace_all(text, spec.metrics_path, "<metrics>");
  std::istringstream lines(text);
  std::string kept;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" simulated events in ") != std::string::npos) continue;
    if (line.rfind("phases[", 0) == 0) continue;
    kept += line + "\n";
  }
  return kept;
}

// Cut-down E4 boundary grid (f and f+1 faults per cluster, every
// strategy, three seeds): the f+1 rows break the intra-cluster bound, so
// the margin goes negative and the first violating task is reported.
TEST(TimingFooter, FaultBoundaryViolations) {
  FooterCase c;
  c.scenario = "e4_fault_tolerance_boundary";
  c.axes = {"faults_per_cluster=1,2"};
  EXPECT_EQ(masked_footer(c, "e4"),
            "queue[ladder]: buckets=265 rung_spawns=0 overflow_peak=265 "
            "reseeds=1981\n"
            "runs[ladder]: run_events=246638 sorted_elements=842551 "
            "sort_fallbacks=13\n"
            "bytes[queue]: entry_bytes=19389128 narrow=616078 wide=239090 "
            "groups=142661 mean_group=4.3 bytes_per_event=22.7 "
            "lane_peak_bytes=29696 lane_peak_lanes=52 lane_peak_live=227\n"
            "deliveries: total=891336 cluster=234378 level=656958 share=0 "
            "propose=0 elided=277923 elided_share=0.312\n"
            "monitors[on]: probes=7200 violations=705 max_local=33.41 "
            "max_global=33.41 max_intra=1.052 local_margin=154.1 "
            "global_margin=8.806 intra_margin=-0.3376\n"
            "monitors: FIRST VIOLATION intra_cluster value=0.799668 "
            "bound=0.714529 at t=6.064 task=9 events=784 trace_offset=0\n"
            "trace=off\n"
            "metrics=off\n");
}

// Two sharded tasks with trace and metrics capture: shard footprints sum
// within a task, the largest task's footprint wins across tasks, and the
// margins take the minimum over tasks.
TEST(TimingFooter, ShardedTorusWithCapture) {
  FooterCase c;
  c.scenario = "large_torus";
  c.axes = {"clusters=16,64"};
  c.shards = 2;
  c.trace = true;
  c.metrics = true;
  EXPECT_EQ(masked_footer(c, "torus"),
            "queue[ladder]: buckets=9344 rung_spawns=0 overflow_peak=9344 "
            "reseeds=103\n"
            "runs[ladder]: run_events=789421 sorted_elements=993025 "
            "sort_fallbacks=0\n"
            "bytes[queue]: entry_bytes=21726544 narrow=832000 wide=172309 "
            "groups=141440 mean_group=5.9 bytes_per_event=21.6 "
            "lane_peak_bytes=974336 lane_peak_lanes=1837 "
            "lane_peak_live=6656\n"
            "deliveries: total=825068 cluster=166400 level=658668 share=0 "
            "propose=0 elided=0 elided_share=0.000\n"
            "shards[2]: cut_edges=512 min_cut_delay=0.99 windows=168 "
            "mailbox_peak=768\n"
            "monitors[on]: probes=8 violations=0 max_local=0.1244 "
            "max_global=0.1309 max_intra=0.01521 local_margin=270.4 "
            "global_margin=83.61 intra_margin=0.6993\n"
            "trace[on]: files=2 records=825068 bytes=8498919 "
            "buffer_peak=20480 (<trace>)\n"
            "metrics[on]: files=2 probes=8 bytes=4380 (<metrics>)\n");
}

TEST(TimingFooter, MonitorsOff) {
  FooterCase c;
  c.scenario = "e4_fault_tolerance_boundary";
  c.axes = {"faults_per_cluster=1,2"};
  c.monitors = false;
  EXPECT_EQ(masked_footer(c, "nomon"),
            "queue[ladder]: buckets=265 rung_spawns=0 overflow_peak=265 "
            "reseeds=1981\n"
            "runs[ladder]: run_events=246638 sorted_elements=842551 "
            "sort_fallbacks=13\n"
            "bytes[queue]: entry_bytes=19389128 narrow=616078 wide=239090 "
            "groups=142661 mean_group=4.3 bytes_per_event=22.7 "
            "lane_peak_bytes=29696 lane_peak_lanes=52 lane_peak_live=227\n"
            "deliveries: total=891336 cluster=234378 level=656958 share=0 "
            "propose=0 elided=277923 elided_share=0.312\n"
            "monitors=off\n"
            "trace=off\n"
            "metrics=off\n");
}

// A single cluster cannot be partitioned: the run falls back to the
// single simulator and says so. Single-cluster graphs have no local or
// global envelope, so only the intra-cluster margin prints.
TEST(TimingFooter, DegenerateShardFallback) {
  FooterCase c;
  c.scenario = "e4_fault_tolerance_boundary";
  c.axes = {"clusters=1", "faults_per_cluster=1,2"};
  c.shards = 4;
  EXPECT_EQ(masked_footer(c, "fallback"),
            "queue[ladder]: buckets=39 rung_spawns=0 overflow_peak=39 "
            "reseeds=2196\n"
            "runs[ladder]: run_events=28425 sorted_elements=119007 "
            "sort_fallbacks=0\n"
            "bytes[queue]: entry_bytes=3393112 narrow=76855 wide=44387 "
            "groups=36331 mean_group=2.1 bytes_per_event=28.0 "
            "lane_peak_bytes=7168 lane_peak_lanes=11 lane_peak_live=36\n"
            "deliveries: total=126007 cluster=32316 level=93691 share=0 "
            "propose=0 elided=49521 elided_share=0.393\n"
            "shards: requested 4, partition degenerate — ran the "
            "single-simulator engine\n"
            "monitors[on]: probes=7200 violations=235 max_local=1.048 "
            "max_global=1.048 max_intra=1.048 intra_margin=-0.3337\n"
            "monitors: FIRST VIOLATION intra_cluster value=0.79155 "
            "bound=0.714529 at t=6.064 task=10 events=109 "
            "trace_offset=0\n"
            "trace=off\n"
            "metrics=off\n");
}

// Sharded and unsharded tasks in one sweep: the unsharded (single
// cluster) tasks must not drag min_cut_delay to zero, nor the absent
// local/global envelopes pull the margins to a non-finite value.
TEST(TimingFooter, MixedShardedAndFallbackTasks) {
  FooterCase c;
  c.scenario = "e4_fault_tolerance_boundary";
  c.axes = {"clusters=1,3", "faults_per_cluster=1", "strategy=two-faced"};
  c.shards = 2;
  c.metrics = true;
  EXPECT_EQ(masked_footer(c, "mixed"),
            "queue[ladder]: buckets=158 rung_spawns=0 overflow_peak=158 "
            "reseeds=655\n"
            "runs[ladder]: run_events=47578 sorted_elements=105619 "
            "sort_fallbacks=0\n"
            "bytes[queue]: entry_bytes=3796288 narrow=83680 wide=32118 "
            "groups=48588 mean_group=1.7 bytes_per_event=32.8 "
            "lane_peak_bytes=20480 lane_peak_lanes=31 lane_peak_live=198\n"
            "deliveries: total=118500 cluster=28644 level=89856 share=0 "
            "propose=0 elided=35108 elided_share=0.296\n"
            "shards[2]: cut_edges=32 min_cut_delay=0.99 windows=1440 "
            "mailbox_peak=40\n"
            "monitors[on]: probes=1440 violations=0 max_local=0.1652 "
            "max_global=0.27 max_intra=0.02027 local_margin=187.3 "
            "global_margin=41.95 intra_margin=0.6943\n"
            "trace=off\n"
            "metrics[on]: files=6 probes=1440 bytes=637768 (<metrics>)\n");
}

/// Every stat of `plane`, one "line.name=value" line each (%.17g).
std::string plane_text(const SweepResult& result, support::Plane plane) {
  std::string out;
  for_each_stats(
      [&](const auto& stats) {
        using S = std::remove_cvref_t<decltype(stats)>;
        for (const auto& stat : support::kFields<S>) {
          if (stat.plane != plane || stat.get == nullptr) continue;
          char buf[40];
          std::snprintf(buf, sizeof buf, "%.17g", stat.get(stats));
          out += std::string(stat.line != nullptr ? stat.line : "-") + "." +
                 stat.name + "=" + buf + "\n";
        }
      },
      result);
  return out;
}

// The plane tag is a checked claim: every stat tagged deterministic must
// render byte-identically across shard counts, so a stat that is in fact
// shard-dependent fails here rather than leaking into a byte-compared
// output.
TEST(TimingFooter, DeterministicPlaneIsShardInvariant) {
  const auto run_with = [](int shards) {
    FooterCase c;
    c.scenario = "large_torus";
    c.axes = {"clusters=64"};
    c.shards = shards;
    c.trace = true;
    c.metrics = true;
    return run_case(spec_for(c, "plane"));
  };
  const SweepResult base = run_with(1);
  const std::string deterministic =
      plane_text(base, support::Plane::kDeterministic);
  for (const char* key : {"monitors.probes=", "monitors.intra_margin=",
                          "trace.records=", "metrics.bytes=",
                          "deliveries.level="}) {
    EXPECT_NE(deterministic.find(key), std::string::npos) << key;
  }
  for (int shards : {2, 4}) {
    const SweepResult other = run_with(shards);
    EXPECT_EQ(plane_text(other, support::Plane::kDeterministic),
              deterministic)
        << "shards=" << shards;
    // The engine plane does move, so the check above has teeth.
    EXPECT_NE(plane_text(other, support::Plane::kEngine),
              plane_text(base, support::Plane::kEngine))
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace ftgcs::exp
