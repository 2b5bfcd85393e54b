// Metrics-plane pins: histogram bucket geometry, percentile semantics,
// the zero-allocation sampling contract, a byte-exact golden series, and
// shard invariance of the deterministic JSONL plane.
//
// The golden FNV constant pins the series format (field order, %.17g
// rendering, header shape) AND the simulated trajectory it serializes.
// Any intentional schema change must bump the schema id in
// obs/sampler.cpp and this constant together.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/exp.h"
#include "obs/histogram.h"
#include "obs/phase_profiler.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "support/alloc_guard.h"

namespace ftgcs {
namespace {

using exp::AxisValue;
using exp::ScenarioSpec;
using obs::LogLinearHistogram;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---- histogram geometry ----------------------------------------------------

TEST(LogLinearHistogram, BucketBoundariesExactFromSpec) {
  // Widths chosen to be exact in IEEE-754 so every boundary is a pure
  // function of the spec on any platform.
  const LogLinearHistogram h({/*linear_width=*/0.25, /*linear_max=*/1.0,
                              /*growth=*/2.0, /*max=*/8.0});
  const std::vector<double> expected = {0.25, 0.5, 0.75, 1.0, 2.0, 4.0, 8.0};
  EXPECT_EQ(h.boundaries(), expected);
  EXPECT_EQ(h.num_buckets(), expected.size() + 1);  // + overflow

  EXPECT_EQ(h.bucket_index(-1.0), 0u);  // negatives clamp into bucket 0
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(0.24), 0u);
  // A value ON a boundary belongs to the bucket ABOVE it (upper bounds
  // are exclusive).
  EXPECT_EQ(h.bucket_index(0.25), 1u);
  EXPECT_EQ(h.bucket_index(1.0), 4u);   // first geometric bucket
  EXPECT_EQ(h.bucket_index(7.99), 6u);
  EXPECT_EQ(h.bucket_index(8.0), 7u);   // overflow bucket
  EXPECT_EQ(h.bucket_index(1e12), 7u);
}

TEST(LogLinearHistogram, PercentilesAreBucketBoundsClippedToMax) {
  LogLinearHistogram h({/*linear_width=*/1.0, /*linear_max=*/10.0,
                        /*growth=*/2.0, /*max=*/80.0});
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty

  h.record(0.5);
  h.record(1.5);
  h.record(2.5);
  h.record(3.5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max_seen(), 3.5);
  // rank(0.5) = 2nd sample → bucket [1,2): upper bound 2.
  EXPECT_EQ(h.percentile(0.5), 2.0);
  // The top percentiles clip to the exact running max, not a boundary.
  EXPECT_EQ(h.percentile(0.99), 3.5);
  EXPECT_EQ(h.percentile(1.0), 3.5);

  // Overflow values read back as the max, never as infinity.
  h.record(5000.0);
  EXPECT_EQ(h.percentile(1.0), 5000.0);

  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_seen(), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
  h.record(0.25);
  EXPECT_EQ(h.percentile(1.0), 0.25);
}

TEST(LogLinearHistogram, RecordAndPercentileAllocateNothing) {
  LogLinearHistogram h(obs::ProbeSampler::scaled_spec(1.0));
  support::ScopedAllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    h.record(i * 1e-5);
  }
  volatile double sink = h.percentile(0.5) + h.percentile(0.99);
  (void)sink;
  h.clear();
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(ProbeSampler, ScaledSpecDerivesFromScale) {
  const LogLinearHistogram::Spec spec = obs::ProbeSampler::scaled_spec(2.0);
  EXPECT_EQ(spec.linear_width, 0.002);
  EXPECT_EQ(spec.linear_max, 0.2);
  EXPECT_EQ(spec.growth, 1.25);
  EXPECT_EQ(spec.max, 128.0);
}

// ---- zero-allocation sampling contract -------------------------------------

// After prewarm(), sample() must allocate nothing — from the FIRST probe,
/// Tiny 4-node topology (2 clusters × 2) — the sampler only reads the
/// adjacency and the cluster shape.
exp::TopologyGraph four_nodes() {
  static const net::AugmentedTopology topo(net::Graph::line(2), 2);
  return exp::build_topology_graph(topo, net::UniformDelay(1.0, 0.5));
}

// not after a warm-up: the row buffer is capacity-pinned by prewarm, the
// registry storage is fixed at registration, and the stdio stream buffer
// was forced into existence by the header write in the constructor.
TEST(ProbeSampler, SteadyStateSamplingAllocatesNothing) {
  obs::ProbeSampler::Config config;
  config.path = temp_path("alloc_pin.jsonl");
  config.monitors = false;
  config.hist_scale = 1.0;
  obs::ProbeSampler sampler(config, four_nodes());
  sampler.prewarm();

  core::SystemColumns columns;
  columns.logical = {1.0, 1.25, 1.5, 2.0};
  columns.correct = {1, 1, 1, 1};
  columns.gamma = {0, 0, 0, 0};
  metrics::SkewSample skews;
  skews.node_local = 0.5;
  skews.cluster_local = 0.25;
  skews.intra_cluster = 0.25;
  skews.node_global = 1.0;
  skews.cluster_global = 0.75;

  obs::SampleContext ctx;
  ctx.events = 0;
  ctx.messages = 0;
  ctx.skews = &skews;
  ctx.columns = &columns;

  {
    support::ScopedAllocGuard guard;
    for (int probe = 0; probe < 200; ++probe) {
      ctx.at = probe * 0.125;
      ctx.events += 7;
      ctx.messages += 3;
      sampler.sample(ctx);
    }
    EXPECT_EQ(guard.allocations(), 0u);
  }
  sampler.finish();
  EXPECT_EQ(sampler.probes(), 200u);

  // The file it produced is well-formed series JSONL.
  obs::SeriesData series;
  std::string error;
  ASSERT_TRUE(obs::load_series(sampler.path(), &series, &error)) << error;
  EXPECT_EQ(series.rows.size(), 200u);
  EXPECT_EQ(series.header.number("nodes"), 4.0);
  // Histogram max fields are exact (clipped to max_seen): the worst
  // edge gap is |2.0 − 1.0| = 1.0 every probe.
  EXPECT_EQ(series.rows.back().number("local_max"), 1.0);
  EXPECT_EQ(series.rows.back().number("global_max"), 1.0);
}

// ---- unwritable outputs ----------------------------------------------------
// A metrics path that cannot be created, or a disk that fills up, is a
// typed error naming the path (like --trace), never an abort or a
// silently truncated series.

/// Expects `fn` to throw std::runtime_error whose message names `path`.
template <typename F>
void expect_error_naming(const std::string& path, F&& fn) {
  try {
    fn();
    ADD_FAILURE() << "no error for '" << path << "'";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
}

TEST(ProbeSampler, UncreatablePathIsATypedError) {
  obs::ProbeSampler::Config config;
  config.path = "/nonexistent/dir/x.jsonl";
  expect_error_naming(config.path,
                      [&] { obs::ProbeSampler sampler(config, four_nodes()); });
}

TEST(PhaseProfiler, UncreatablePathIsATypedError) {
  const std::string path = "/nonexistent/dir/x.jsonl.profile";
  expect_error_naming(path, [&] { obs::PhaseProfiler profiler(path); });
}

TEST(ProbeSampler, FullDiskIsATypedErrorAtFinish) {
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) GTEST_SKIP() << "no /dev/full on this system";
  std::fclose(probe);

  obs::ProbeSampler::Config config;
  config.path = "/dev/full";
  obs::ProbeSampler sampler(config, four_nodes());
  core::SystemColumns columns;
  columns.logical = {1.0, 1.25, 1.5, 2.0};
  columns.correct = {1, 1, 1, 1};
  columns.gamma = {0, 0, 0, 0};
  metrics::SkewSample skews;
  obs::SampleContext ctx;
  ctx.skews = &skews;
  ctx.columns = &columns;
  // Well past one stdio buffer, so writes fail inside sample() too.
  for (int probe_index = 0; probe_index < 200; ++probe_index) {
    ctx.at = probe_index * 0.125;
    sampler.sample(ctx);
  }
  expect_error_naming(config.path, [&] { sampler.finish(); });
  EXPECT_NO_THROW(sampler.finish());  // closed: idempotent
}

// ---- golden series + shard invariance --------------------------------------

/// Runs a registered scenario at clusters=64 with the metrics series on
/// and returns the series file's bytes.
std::string run_series(const std::string& scenario, int shards,
                       const std::string& path) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find(scenario);
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);
  spec.shards = shards;
  spec.metrics_path = path;
  const exp::RunResult result = run_point(spec, 1);
  EXPECT_EQ(result.series.files, 1u);
  EXPECT_GT(result.series.probes, 0u);
  EXPECT_GT(result.series.bytes, 0u);
  EXPECT_GT(result.monitor.stats.probes, 0u);  // monitored scenario
  return read_file(path);
}

TEST(MetricsSeries, GoldenFilePin) {
  const std::string path = temp_path("golden_metrics.jsonl");
  const std::string bytes = run_series("large_ring", 1, path);
  EXPECT_EQ(fnv1a(bytes), 0x5073449365e29148ull);
  EXPECT_EQ(bytes.size(), 2191u);

  // The pinned bytes parse back, carry the monitored schema, and never
  // recorded a violation.
  obs::SeriesData series;
  std::string error;
  ASSERT_TRUE(obs::load_series(path, &series, &error)) << error;
  EXPECT_GT(series.header.number("bound_local"), 0.0);
  EXPECT_GT(series.header.number("bound_global"), 0.0);
  for (const obs::JsonLine& row : series.rows) {
    EXPECT_EQ(row.number("violations", -1.0), 0.0);
    EXPECT_GE(row.number("margin_local", -1.0), 0.0);
  }
}

// The plane-separation pin: the monitored large_torus series (the
// heaviest registered workload, the acceptance target) must be
// byte-identical across --shards {1,2,4}. The profiler sidecar absorbs
// everything shard-dependent; if a shard-sensitive quantity ever leaks
// into the series, this fails at the first divergent probe.
TEST(MetricsSeries, TorusSeriesIdenticalAcrossShards) {
  const std::string base =
      run_series("large_torus", 1, temp_path("ms_l1.jsonl"));
  EXPECT_EQ(base, run_series("large_torus", 2, temp_path("ms_l2.jsonl")));
  EXPECT_EQ(base, run_series("large_torus", 4, temp_path("ms_l4.jsonl")));

  // ftgcs_report's differ must agree that the trajectories are equal.
  obs::SeriesData a;
  obs::SeriesData b;
  std::string error;
  ASSERT_TRUE(obs::load_series(temp_path("ms_l1.jsonl"), &a, &error)) << error;
  ASSERT_TRUE(obs::load_series(temp_path("ms_l4.jsonl"), &b, &error)) << error;
  std::ostringstream table;
  EXPECT_EQ(obs::render_diff(a, b, table), 0);
}

// The sharded driver's overlapped trace commit is attributed in the
// sidecar's summary row (commit_ms), rendered by `ftgcs_report show`, and
// set side by side with the shards' wait by `ftgcs_report diff`. An
// untraced run commits nothing.
TEST(PhaseProfiler, OverlappedCommitTimeReachesSidecarAndReport) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);
  spec.shards = 2;
  spec.metrics_path = temp_path("commit_untraced.jsonl");
  const exp::RunResult untraced = run_point(spec, 1);
  EXPECT_EQ(untraced.profile.shards, 2.0);
  EXPECT_EQ(untraced.profile.commit_ms, 0.0);

  spec.metrics_path = temp_path("commit_traced.jsonl");
  spec.trace_path = temp_path("commit_traced.ftr");
  const exp::RunResult traced = run_point(spec, 1);
  EXPECT_GT(traced.profile.commit_ms, 0.0);

  obs::SeriesData profile;
  obs::SeriesData untraced_profile;
  std::string error;
  ASSERT_TRUE(obs::load_series(spec.metrics_path + ".profile", &profile,
                               &error))
      << error;
  ASSERT_TRUE(obs::load_series(temp_path("commit_untraced.jsonl.profile"),
                               &untraced_profile, &error))
      << error;
  bool summarized = false;
  for (const obs::JsonLine& row : profile.rows) {
    if (row.text("section") != "summary") continue;
    summarized = true;
    EXPECT_EQ(row.number("commit_ms", -1.0), traced.profile.commit_ms);
  }
  EXPECT_TRUE(summarized);

  std::ostringstream shown;
  obs::render_profile(profile, shown);
  EXPECT_NE(shown.str().find("driver trace commit overlapped"),
            std::string::npos)
      << shown.str();
  std::ostringstream diffed;
  obs::render_profile_diff(untraced_profile, profile, diffed);
  EXPECT_NE(diffed.str().find("commit_ms"), std::string::npos)
      << diffed.str();
  EXPECT_NE(diffed.str().find("wait_ms"), std::string::npos) << diffed.str();
}

// ---- series reader grammar -------------------------------------------------

TEST(SeriesReader, ParsesFlatObjectsAndRejectsNesting) {
  obs::JsonLine line;
  std::string error;
  ASSERT_TRUE(obs::parse_json_line(
      R"({"t":1.5,"name":"x","ok":true,"gone":null,"n":-2e3})", &line,
      &error))
      << error;
  EXPECT_EQ(line.fields.size(), 5u);
  EXPECT_EQ(line.number("t"), 1.5);
  EXPECT_EQ(line.text("name"), "x");
  EXPECT_EQ(line.number("n"), -2000.0);
  EXPECT_EQ(line.find("gone")->kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(line.find("missing"), nullptr);

  // Structure smuggled into the series must break loudly, not parse.
  EXPECT_FALSE(obs::parse_json_line(R"({"a":{"b":1}})", &line, &error));
  EXPECT_FALSE(obs::parse_json_line(R"({"a":[1,2]})", &line, &error));
  EXPECT_FALSE(obs::parse_json_line(R"({"a":1)", &line, &error));
}

}  // namespace
}  // namespace ftgcs
