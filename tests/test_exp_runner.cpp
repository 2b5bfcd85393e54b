// The exp/ engine's contract: a ScenarioSpec resolves to identical
// simulations on every replica, so sweep results are bit-identical at any
// thread count; the registry round-trips specs by name; sinks render the
// collected rows.
#include "exp/exp.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace ftgcs::exp {
namespace {

/// A small but non-trivial scenario: ramp + faults + a 2x2 grid x 2 seeds.
ScenarioSpec small_scenario() {
  ScenarioSpec spec;
  spec.name = "test_small";
  spec.title = "determinism fixture";
  spec.ramp.gap_rounds = 2;
  spec.horizon.base_rounds = 12.0;
  spec.faults.mode = FaultMode::kUniform;
  spec.faults.count = -1;
  spec.faults.strategy = byz::StrategyKind::kTwoFaced;
  spec.faults.param_times_E = 1.0;
  spec.seeds = {1, 2};
  spec.axes = {
      {"clusters", {AxisValue::of(2), AxisValue::of(3)}},
      {"attacked", {AxisValue::named(0, "no"), AxisValue::named(1, "yes")}},
  };
  return spec;
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    const RunResult& lhs = a.rows[r];
    const RunResult& rhs = b.rows[r];
    EXPECT_EQ(lhs.point, rhs.point) << "row " << r;
    EXPECT_EQ(lhs.seed, rhs.seed) << "row " << r;
    ASSERT_EQ(lhs.metrics.size(), rhs.metrics.size()) << "row " << r;
    for (std::size_t m = 0; m < lhs.metrics.size(); ++m) {
      EXPECT_EQ(lhs.metrics[m].first, rhs.metrics[m].first)
          << "row " << r << " metric " << m;
      // Bit-identical, not approximately equal: the runner promises the
      // thread count cannot influence any simulation.
      EXPECT_EQ(lhs.metrics[m].second, rhs.metrics[m].second)
          << "row " << r << " metric " << lhs.metrics[m].first;
    }
  }
}

TEST(SweepRunner, DeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = small_scenario();
  const SweepResult serial = SweepRunner({1}).run(spec);
  const SweepResult two = SweepRunner({2}).run(spec);
  const SweepResult eight = SweepRunner({8}).run(spec);
  expect_identical(serial, two);
  expect_identical(serial, eight);
}

TEST(SweepRunner, RepeatedRunsAreIdentical) {
  const ScenarioSpec spec = small_scenario();
  expect_identical(SweepRunner({3}).run(spec), SweepRunner({3}).run(spec));
}

TEST(SweepRunner, GridOrderIsRowMajorWithSeedsInnermost) {
  const SweepResult result = SweepRunner({1}).run(small_scenario());
  // 2 clusters-values x 2 attacked-values x 2 seeds.
  ASSERT_EQ(result.rows.size(), 8u);
  EXPECT_EQ(result.axis_names,
            (std::vector<std::string>{"clusters", "attacked", "seed"}));
  EXPECT_EQ(result.rows[0].point[0].second, "2");
  EXPECT_EQ(result.rows[0].point[1].second, "no");
  EXPECT_EQ(result.rows[0].seed, 1u);
  EXPECT_EQ(result.rows[1].seed, 2u);
  EXPECT_EQ(result.rows[2].point[1].second, "yes");
  EXPECT_EQ(result.rows[4].point[0].second, "3");
}

TEST(SweepRunner, AttackedAxisTogglesTheFaultPlan) {
  ScenarioSpec off = small_scenario();
  apply_axis(off, "clusters", 3);
  apply_axis(off, "attacked", 0);
  EXPECT_TRUE(resolve(off, 1).fault_plan.empty());

  ScenarioSpec on = small_scenario();
  apply_axis(on, "clusters", 3);
  apply_axis(on, "attacked", 1);
  // One two-faced fault (the full f=1 budget) per cluster.
  EXPECT_EQ(resolve(on, 1).fault_plan.size(), 3u);
}

TEST(SweepRunner, WorstOverSeedsCollapsesSeedRows) {
  ScenarioSpec spec = small_scenario();
  spec.aggregation = SeedAggregation::kWorstOverSeeds;
  const SweepResult per_seed = SweepRunner({1}).run(small_scenario());
  const SweepResult worst = SweepRunner({1}).run(spec);
  ASSERT_EQ(worst.rows.size(), 4u);
  EXPECT_EQ(worst.axis_names,
            (std::vector<std::string>{"clusters", "attacked"}));
  // The collapsed row's max_local is the max of its two seed rows.
  const double expected = std::max(per_seed.rows[0].metric("max_local"),
                                   per_seed.rows[1].metric("max_local"));
  EXPECT_EQ(worst.rows[0].metric("max_local"), expected);
  // Counters sum instead.
  EXPECT_EQ(worst.rows[0].metric("messages"),
            per_seed.rows[0].metric("messages") +
                per_seed.rows[1].metric("messages"));
}

TEST(Registry, RoundTripsSpecsByName) {
  Registry& registry = Registry::instance();
  ScenarioSpec spec = small_scenario();
  spec.name = "test_round_trip";
  spec.description = "registry fixture";
  registry.add(spec);

  const ScenarioSpec* found = registry.find("test_round_trip");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name, spec.name);
  EXPECT_EQ(found->title, spec.title);
  EXPECT_EQ(found->description, spec.description);
  EXPECT_EQ(found->seeds, spec.seeds);
  EXPECT_EQ(found->ramp.gap_rounds, spec.ramp.gap_rounds);
  ASSERT_EQ(found->axes.size(), spec.axes.size());
  EXPECT_EQ(found->axes[0].name, "clusters");
  EXPECT_EQ(found->axes[1].values[1].label, "yes");

  // The registered copy runs exactly like the original value.
  expect_identical(SweepRunner({1}).run(*found), SweepRunner({1}).run(spec));

  // Replacement by name, not duplication.
  const std::size_t size = registry.size();
  spec.title = "updated";
  registry.add(spec);
  EXPECT_EQ(registry.size(), size);
  EXPECT_EQ(registry.find("test_round_trip")->title, "updated");
}

TEST(Registry, BuiltinsRegisterAndResolve) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // idempotent
  for (const char* name :
       {"e1_local_skew_vs_diameter", "e1_gradient_scale",
        "e4_fault_tolerance_boundary", "e6_global_skew_drain",
        "e6_split_drift_containment", "e9_overhead_scaling",
        "e8_gcs_pump_baseline", "e2_cluster_skew_bound",
        "e8_ftgcs_skew_pump", "e8_gcs_pump_failure", "e5_tree_sync",
        "e5_cluster_tree", "e5_ftgcs_ramp", "e13_lynch_welch",
        "e13_srikanth_toueg"}) {
    const ScenarioSpec* spec = Registry::instance().find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_GT(spec->num_tasks(), 0u) << name;
    // Every grid point must resolve without throwing.
    ScenarioSpec point = *spec;
    for (const auto& axis : spec->axes) {
      apply_axis(point, axis.name, axis.values.front().value);
    }
    const ResolvedRun run = resolve(point, spec->seeds.front());
    EXPECT_GT(run.horizon_rounds, 0.0) << name;
    EXPECT_TRUE(run.graph.connected()) << name;
  }
}

TEST(Scenario, AxisApplicationCoversDocumentedNames) {
  ScenarioSpec spec;
  apply_axis(spec, "diameter", 8);
  EXPECT_EQ(spec.topology.a, 9);
  apply_axis(spec, "clusters", 5);
  EXPECT_EQ(spec.topology.a, 5);
  apply_axis(spec, "gap_rounds", 3);
  EXPECT_EQ(spec.ramp.gap_rounds, 3);
  apply_axis(spec, "f", 2);
  EXPECT_EQ(spec.params.f, 2);
  apply_axis(spec, "faults_per_cluster", 1);
  EXPECT_EQ(spec.faults.count, 1);
  apply_axis(spec, "strategy",
             static_cast<double>(static_cast<int>(
                 byz::StrategyKind::kEquivocator)));
  EXPECT_EQ(spec.faults.strategy, byz::StrategyKind::kEquivocator);
  apply_axis(spec, "attacked", 0);
  EXPECT_FALSE(spec.faults.enabled);
  apply_axis(spec, "horizon_rounds", 42);
  EXPECT_DOUBLE_EQ(spec.horizon.base_rounds, 42.0);
  EXPECT_THROW(apply_axis(spec, "no_such_axis", 1.0),
               std::invalid_argument);
}

// Bad `--axis` input travels parse_axis -> SweepRunner -> apply_axis and
// must come back as std::invalid_argument naming the axis and the value,
// never as an abort from a downstream precondition.
TEST(Scenario, BadAxisValuesThrowTypedErrors) {
  register_builtin_scenarios();
  const ScenarioSpec* base =
      Registry::instance().find("e4_fault_tolerance_boundary");
  ASSERT_NE(base, nullptr);
  const struct {
    const char* arg;
    const char* value;  ///< as the error message prints it
  } cases[] = {
      {"clusters=nan", "nan"},      {"clusters=1e12", "1e+12"},
      {"clusters=2.5", "2.5"},      {"horizon_rounds=-1", "-1"},
      {"horizon_rounds=inf", "inf"}, {"strategy=99", "99"},
      {"fault_mode=9", "9"},        {"f=-1", "-1"},
      {"shards=0", "0"},            {"probability=1.5", "1.5"},
      {"attacked=2", "2"},
  };
  for (const auto& c : cases) {
    ScenarioSpec spec = *base;
    spec.seeds = {1};
    override_axis(spec, parse_axis(c.arg));
    const std::string arg = c.arg;
    const std::string axis = arg.substr(0, arg.find('='));
    try {
      SweepRunner({1}).run(spec);
      ADD_FAILURE() << c.arg << " was accepted";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("'" + axis + "' value " + c.value),
                std::string::npos)
          << c.arg << ": " << what;
    }
  }
}

// An axis value the parameter presets cannot derive from is a typed error
// from ParamsSpec::build that names the values, never an abort in
// core::Params or the global-skew module.
class InfeasibleParamsAxis
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(InfeasibleParamsAxis, ThrowsTypedError) {
  register_builtin_scenarios();
  ScenarioSpec spec = *Registry::instance().find("e2_cluster_skew_bound");
  spec.seeds = {1};
  override_axis(spec, parse_axis(GetParam().first));
  try {
    SweepRunner({1}).run(spec);
    ADD_FAILURE() << GetParam().first << " was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(GetParam().second),
              std::string::npos)
        << error.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenario, InfeasibleParamsAxis,
    ::testing::Values(std::pair{"rho=0.01", "rho=0.01 "},
                      std::pair{"rho=0", "rho=0 "},
                      std::pair{"U=2", "U=2:"},
                      std::pair{"d=0.001", "d=0.001 "},
                      std::pair{"cluster_size=2", "cluster_size 2 "}),
    [](const auto& axis) {
      std::string name = axis.param.first;
      for (char& c : name) {
        if (c == '=' || c == '.') c = '_';
      }
      return name;
    });

// The comparison kinds run on one simulator whatever `shards` says, so
// their rows are identical at 1 and 2 shards; Srikanth-Toueg and tree
// sync model no faults and reject an active fault plan, and
// Srikanth-Toueg needs a clique of n > 3f.
TEST(Baselines, NewKindsAreShardInvariantAndRejectFaults) {
  register_builtin_scenarios();
  for (const char* name :
       {"e5_tree_sync", "e5_cluster_tree", "e13_srikanth_toueg"}) {
    ScenarioSpec spec = *Registry::instance().find(name);
    const SweepResult one = SweepRunner({2}).run(spec);
    spec.shards = 2;
    expect_identical(one, SweepRunner({2}).run(spec));
  }
  for (const char* name : {"e5_tree_sync", "e13_srikanth_toueg"}) {
    ScenarioSpec spec = *Registry::instance().find(name);
    spec.faults.mode = FaultMode::kUniform;
    EXPECT_THROW(resolve(spec, 1), std::invalid_argument) << name;
    spec.faults.enabled = false;  // an inactive plan is fine
    EXPECT_NO_THROW(resolve(spec, 1)) << name;
  }
  ScenarioSpec st = *Registry::instance().find("e13_srikanth_toueg");
  apply_axis(st, "clusters", 3);  // n = 3f
  EXPECT_THROW(run_point(st, 1), std::invalid_argument);
  st.topology.kind = TopologyKind::kLine;
  apply_axis(st, "clusters", 4);
  EXPECT_THROW(run_point(st, 1), std::invalid_argument);
}

TEST(Scenario, ParseAxisRejectsMalformedArguments) {
  for (const char* arg : {"clusters", "=1", "clusters=", "clusters=2x",
                          "clusters=,", "strategy=no-such-strategy"}) {
    EXPECT_THROW(parse_axis(arg), std::invalid_argument) << arg;
  }
  const SweepAxis axis = parse_axis("strategy=two-faced,3");
  ASSERT_EQ(axis.values.size(), 2u);
  EXPECT_EQ(axis.values[0].value,
            static_cast<double>(byz::StrategyKind::kTwoFaced));
  EXPECT_EQ(axis.values[0].label, "two-faced");
  EXPECT_EQ(axis.values[1].value, 3.0);
}

// CLI integer flags parse the whole token: trailing characters, a sign on
// an unsigned value, overflow and out-of-range values are typed errors
// that name the flag.
TEST(Scenario, IntegerFlagsParseStrictly) {
  const struct {
    const char* flag;
    const char* token;
  } bad_int[] = {{"--shards", "2x"},     {"--threads", "abc"},
                 {"--threads", ""},      {"--shards", " 2"},
                 {"--shards", "0"},      {"--shards", "99999999999"},
                 {"--threads", "1.5"}},
    bad_u64[] = {{"--seeds", "-1"},
                 {"--seeds", "+1"},
                 {"--seeds", "18446744073709551616"},
                 {"--seeds", "7abc"}};
  for (const auto& c : bad_int) {
    try {
      parse_integer<int>(c.flag, c.token, 1);
      ADD_FAILURE() << c.flag << " '" << c.token << "' was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(c.flag, 0), 0u)
          << error.what();
    }
  }
  for (const auto& c : bad_u64) {
    try {
      parse_integer<std::uint64_t>(c.flag, c.token);
      ADD_FAILURE() << c.flag << " '" << c.token << "' was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(c.flag, 0), 0u)
          << error.what();
    }
  }
  EXPECT_EQ(parse_integer<int>("--shards", "4", 1), 4);
  EXPECT_EQ(parse_integer<std::uint64_t>("--seeds", "18446744073709551615"),
            18446744073709551615ull);
}

TEST(Sinks, AllThreeRenderEveryRow) {
  ScenarioSpec spec = small_scenario();
  spec.axes = {{"clusters", {AxisValue::of(2)}}};
  spec.seeds = {1};
  const SweepResult result = SweepRunner({1}).run(spec);

  std::ostringstream table;
  TableSink().write(result, table);
  EXPECT_NE(table.str().find("max_local"), std::string::npos);

  std::ostringstream csv;
  CsvSink().write(result, csv);
  EXPECT_NE(csv.str().find("clusters,"), std::string::npos);

  std::ostringstream jsonl;
  JsonLinesSink().write(result, jsonl);
  EXPECT_NE(jsonl.str().find("\"scenario\":\"test_small\""),
            std::string::npos);
  EXPECT_NE(jsonl.str().find("\"metrics\":{"), std::string::npos);

  EXPECT_THROW(make_sink("bogus"), std::invalid_argument);
  EXPECT_NE(make_sink("table"), nullptr);
  EXPECT_NE(make_sink("csv"), nullptr);
  EXPECT_NE(make_sink("jsonl"), nullptr);
}

TEST(RampShim, EngineMatchesAnalyticRampHeight) {
  // The engine's S_init metric must equal the analytic ramp height
  // (|C|-1)*gap*T, in the FT-GCS schema and in the shared baseline one.
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  ScenarioSpec spec;
  spec.name = "ramp_shim";
  spec.topology.a = 4;
  spec.ramp.gap_rounds = 3;
  spec.horizon.base_rounds = 10.0;
  const RunResult result = run_point(spec, 1);
  EXPECT_DOUBLE_EQ(result.metric("S_init"), 3 * 3 * params.T);
  EXPECT_GT(result.metric("messages"), 0.0);
  EXPECT_EQ(result.metric("violations"), 0.0);
  spec.protocol = ProtocolKind::kTreeSync;
  const RunResult tree = run_point(spec, 1);
  EXPECT_EQ(tree.metric("S_init"), result.metric("S_init"));
  EXPECT_EQ(tree.metric("init_local"), result.metric("init_local"));
}

}  // namespace
}  // namespace ftgcs::exp
