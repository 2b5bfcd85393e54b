// Golden-trace pin for the typed event engine.
//
// The engine swap (typed slot-pooled queue, batched broadcast, in-place
// timer reschedule) is required to preserve equal-time FIFO ordering and
// per-stream RNG draw order EXACTLY. This test pins the E6 global-skew
// scenario (diameter 2, seed 5) to metric values recorded from the
// pre-swap std::function/unordered_map engine: the event and message
// counts fingerprint the whole schedule (any ordering or RNG change shifts
// them), and the skew metrics depend on every delivery timestamp, so a
// match here means the old and new engines execute the same trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/exp.h"

namespace ftgcs::exp {
namespace {

std::string sig(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

TEST(EngineTrace, E6GlobalSkewDrainMatchesPreSwapEngine) {
  register_builtin_scenarios();
  const ScenarioSpec* registered =
      Registry::instance().find("e6_global_skew_drain");
  ASSERT_NE(registered, nullptr);

  // The run uses the ladder (calendar) queue, so this pin also proves it
  // replays the seed engine's trace exactly.
  ScenarioSpec spec = *registered;
  apply_axis(spec, "diameter", 2.0);
  const RunResult result = run_point(spec, /*seed=*/5);

  // Golden values measured on the seed engine (commit 378de92) with the
  // identical spec. Do not update these casually: a diff means the event
  // schedule is no longer bit-identical to the original semantics.
  EXPECT_EQ(result.metric("events"), 1342939.0);
  EXPECT_EQ(result.metric("messages"), 1110128.0);
  EXPECT_EQ(sig(result.metric("S_init")), "129.365285736");
  EXPECT_EQ(sig(result.metric("max_local")), "64.8388502118");
  EXPECT_EQ(sig(result.metric("max_global")), "129.324824038");
  EXPECT_EQ(sig(result.metric("final_global")), "22.0105825273");
  EXPECT_EQ(sig(result.metric("max_intra")), "0.12785914546");
  EXPECT_EQ(result.metric("violations"), 0.0);
  EXPECT_EQ(result.metric("in_global_band"), 1.0);
}

// Large-ring pin at production scale (1000 clusters, 4000 nodes): the key
// figures must equal the golden values recorded from the retired 4-ary
// heap queue (which executed the same trace as the first typed engine).
// Any divergence in pop order, RNG draw order, or delivery timestamps
// shifts the event/message counts or the skews.
TEST(EngineTrace, LargeRingMatchesGoldenValues) {
  register_builtin_scenarios();
  const ScenarioSpec* registered = Registry::instance().find("large_ring");
  ASSERT_NE(registered, nullptr);

  ScenarioSpec spec = *registered;
  spec.axes = {{"clusters", {AxisValue::of(1000)}}};
  apply_axis(spec, "clusters", 1000.0);
  const RunResult result = run_point(spec, /*seed=*/1);

  EXPECT_EQ(result.metric("events"), 7560896.0);
  EXPECT_EQ(result.metric("messages"), 6239700.0);
  EXPECT_EQ(sig(result.metric("max_local")), "0.100114488244");
  EXPECT_EQ(sig(result.metric("max_global")), "0.137683505238");
}

}  // namespace
}  // namespace ftgcs::exp
