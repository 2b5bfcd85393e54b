// LogicalTimerSet: timers aimed at logical values must fire at the exact
// Newtonian instant the (rate-changing) clock reaches the target.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "clocks/logical_clock.h"
#include "clocks/logical_timer.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ftgcs::clocks {
namespace {

using Key = LogicalTimerSet::Key;

/// The timers' client (records every fire as (key, time)) and the sink of
/// scheduled δ changes (kTimer, x = new δ).
struct Fixture final : LogicalTimerSet::Client, sim::EventSink {
  sim::Simulator sim;
  LogicalClock clock{0.5, 0.0, 1.0};  // initial rate (1+0.5·1) = 1.5
  LogicalTimerSet timers{sim, clock, *this};
  sim::SinkId script = sim.register_sink(this);
  std::vector<std::pair<Key, sim::Time>> fires;
  /// A fire of this key slows the clock down to δ = 0 (none by default).
  Key slow_down_on = LogicalTimerSet::kMaxKeys;

  void on_logical_timer(Key key) override {
    fires.emplace_back(key, sim.now());
    if (key == slow_down_on) clock.set_delta(sim.now(), 0.0);
  }

  void on_event(sim::EventKind, const sim::EventPayload& payload,
                sim::Time now) override {
    clock.set_delta(now, payload.x);
  }

  void set_delta_at(sim::Time t, double delta) {
    sim::EventPayload payload;
    payload.x = delta;
    sim.post_at(t, sim::EventKind::kTimer, script, payload);
  }

  /// Time of the last fire of `key`; −1 if it never fired.
  sim::Time fired_at(Key key) const {
    sim::Time at = -1.0;
    for (const auto& [k, t] : fires) {
      if (k == key) at = t;
    }
    return at;
  }
};

TEST(LogicalTimer, FiresAtExactLogicalTarget) {
  Fixture fx;
  fx.timers.arm(1, 3.0);
  fx.sim.run_until(10.0);
  const sim::Time fired_at = fx.fired_at(1);
  EXPECT_NEAR(fired_at, 2.0, 1e-12);  // 3.0 logical / 1.5 rate
  EXPECT_NEAR(fx.clock.read(fired_at), 3.0, 1e-12);
}

TEST(LogicalTimer, ReschedulesWhenClockSpeedsUp) {
  Fixture fx;
  fx.timers.arm(1, 6.0);
  // At t=1 (L=1.5) set δ=3 → rate (1+0.5·3)=2.5. Remaining 4.5 / 2.5 =
  // 1.8 → fires at 2.8.
  fx.set_delta_at(1.0, 3.0);
  fx.sim.run_until(10.0);
  const sim::Time fired_at = fx.fired_at(1);
  EXPECT_NEAR(fired_at, 2.8, 1e-12);
  EXPECT_NEAR(fx.clock.read(fired_at), 6.0, 1e-12);
}

TEST(LogicalTimer, ReschedulesWhenClockSlowsDown) {
  Fixture fx;
  fx.timers.arm(1, 6.0);
  // At t=2 (L=3.0) slow to rate 1.0 (δ=0): remaining 3.0 at rate 1 → t=5.
  fx.set_delta_at(2.0, 0.0);
  fx.sim.run_until(10.0);
  EXPECT_NEAR(fx.fired_at(1), 5.0, 1e-12);
}

TEST(LogicalTimer, CancelPreventsFiring) {
  Fixture fx;
  fx.timers.arm(1, 3.0);
  fx.timers.cancel(1);
  fx.sim.run_until(10.0);
  EXPECT_TRUE(fx.fires.empty());
  EXPECT_EQ(fx.timers.armed_count(), 0u);
}

TEST(LogicalTimer, RearmReplacesTarget) {
  Fixture fx;
  fx.timers.arm(1, 3.0);
  fx.timers.arm(1, 6.0);
  fx.sim.run_until(10.0);
  ASSERT_EQ(fx.fires.size(), 1u);
  EXPECT_NEAR(fx.fired_at(1), 4.0, 1e-12);
}

TEST(LogicalTimer, MultipleKeysIndependent) {
  Fixture fx;
  fx.timers.arm(1, 4.5);
  fx.timers.arm(2, 1.5);
  fx.timers.arm(3, 3.0);
  fx.sim.run_until(10.0);
  std::vector<Key> order;
  for (const auto& fire : fx.fires) order.push_back(fire.first);
  EXPECT_EQ(order, (std::vector<Key>{2, 3, 1}));
}

TEST(LogicalTimer, PastTargetFiresImmediately) {
  Fixture fx;
  fx.sim.run_until(2.0);  // L = 3.0
  fx.timers.arm(1, 1.0);
  fx.sim.run_until(3.0);
  EXPECT_DOUBLE_EQ(fx.fired_at(1), 2.0);
}

TEST(LogicalTimer, FireMayChangeRateWithoutCorruption) {
  Fixture fx;
  fx.timers.arm(2, 6.0);
  fx.timers.arm(1, 3.0);
  // Timer 1 fires at t=2; slowing down moves timer 2 from t=4 to
  // 2+3/1 = 5.
  fx.slow_down_on = 1;
  fx.sim.run_until(10.0);
  EXPECT_NEAR(fx.fired_at(2), 5.0, 1e-12);
}

/// A clock whose δ, γ and hardware rate are redrawn at every scheduled
/// kTimer event; records when its one timer fires.
struct RandomRates final : LogicalTimerSet::Client, sim::EventSink {
  sim::Simulator sim;
  LogicalClock clock{0.3, 0.1, 1.0};
  LogicalTimerSet timers{sim, clock, *this};
  sim::SinkId script = sim.register_sink(this);
  sim::Rng rng;
  sim::Time fired_at = -1.0;

  explicit RandomRates(std::uint64_t seed) : rng(seed) {}

  void on_logical_timer(Key) override { fired_at = sim.now(); }

  void on_event(sim::EventKind, const sim::EventPayload&,
                sim::Time now) override {
    clock.set_delta(now, rng.uniform(0.0, 2.0));
    clock.set_gamma(now, rng.chance(0.5) ? 1 : 0);
    clock.set_hardware_rate(now, rng.uniform(1.0, 1.001));
  }
};

// Property: under random rate changes the timer fires exactly when the
// clock reads the target (within floating-point slack).
TEST(LogicalTimer, RandomRateChangesProperty) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomRates fx(seed);
    const double target = 50.0;
    fx.timers.arm(1, target);
    for (int i = 1; i < 40; ++i) {
      fx.sim.post_at(0.5 * i, sim::EventKind::kTimer, fx.script, {});
    }
    fx.sim.run_until(100.0);
    ASSERT_GE(fx.fired_at, 0.0) << "seed " << seed;
    EXPECT_NEAR(fx.clock.read(fx.fired_at), target, 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ftgcs::clocks
