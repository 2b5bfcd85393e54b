// Hardware and logical clock integration: exactness of the piecewise-
// linear closed forms, eq. (2) factor composition, inversion, and the
// Lemma B.4 rate envelope.
#include <gtest/gtest.h>

#include "clocks/hardware_clock.h"
#include "clocks/logical_clock.h"
#include "sim/rng.h"

namespace ftgcs::clocks {
namespace {

TEST(HardwareClock, IntegratesPiecewiseConstantRateExactly) {
  HardwareClock h(0.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(h.read(2.0), 2.0);
  h.set_rate(2.0, 1.5);
  EXPECT_DOUBLE_EQ(h.read(4.0), 2.0 + 1.5 * 2.0);
  h.set_rate(4.0, 1.0);
  EXPECT_DOUBLE_EQ(h.read(10.0), 5.0 + 6.0);
}

TEST(HardwareClock, WhenReachesInvertsRead) {
  HardwareClock h(0.0, 0.0, 1.25);
  const double target = 10.0;
  const sim::Time t = h.when_reaches(target, 0.0);
  EXPECT_DOUBLE_EQ(h.read(t), target);
}

TEST(HardwareClock, RateChangePreservesValue) {
  HardwareClock h(0.0, 0.0, 1.1);
  const double before = h.read(5.0);
  h.set_rate(5.0, 1.9);
  EXPECT_DOUBLE_EQ(h.read(5.0), before);
}

TEST(LogicalClock, ComposesAllThreeFactors) {
  // L rate = (1+ϕδ)(1+µγ)h per eq. (2).
  LogicalClock clock(/*phi=*/0.1, /*mu=*/0.05, /*h=*/1.2);
  // δ defaults to 1 (Algorithm 1 line 3), γ to 0.
  EXPECT_DOUBLE_EQ(clock.rate(), 1.1 * 1.0 * 1.2);
  clock.set_gamma(0.0, 1);
  EXPECT_DOUBLE_EQ(clock.rate(), 1.1 * 1.05 * 1.2);
  clock.set_delta(0.0, 0.0);
  EXPECT_DOUBLE_EQ(clock.rate(), 1.0 * 1.05 * 1.2);
  clock.set_hardware_rate(0.0, 1.0);
  EXPECT_DOUBLE_EQ(clock.rate(), 1.05);
}

TEST(LogicalClock, IntegratesThroughFactorChanges) {
  LogicalClock clock(0.5, 1.0, 1.0);
  // Segment 1: rate (1+0.5)(1)(1) = 1.5 for t in [0, 2].
  EXPECT_DOUBLE_EQ(clock.read(2.0), 3.0);
  clock.set_gamma(2.0, 1);  // rate 1.5*2 = 3.0
  EXPECT_DOUBLE_EQ(clock.read(3.0), 3.0 + 3.0);
  clock.set_delta(3.0, 2.0);  // rate (1+1)(2)(1) = 4.0
  EXPECT_DOUBLE_EQ(clock.read(4.0), 6.0 + 4.0);
}

TEST(LogicalClock, WhenReachesHandlesPastAndFuture) {
  LogicalClock clock(0.0, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(clock.when_reaches(10.0, 0.0), 5.0);
  // Already-reached targets fire immediately.
  EXPECT_DOUBLE_EQ(clock.when_reaches(-1.0, 3.0), 3.0);
}

/// Counts rate-change notifications.
struct CountingObserver final : RateObserver {
  int notifications = 0;
  void on_rate_change(sim::Time) override { ++notifications; }
};

TEST(LogicalClock, ObserverFiresOnEveryRateChange) {
  LogicalClock clock(0.1, 0.1, 1.0);
  CountingObserver observer;
  int& notifications = observer.notifications;
  clock.set_rate_observer(&observer);
  clock.set_gamma(1.0, 1);
  clock.set_delta(2.0, 0.5);
  clock.set_hardware_rate(3.0, 1.05);
  EXPECT_EQ(notifications, 3);
  // No-op changes do not notify.
  clock.set_gamma(4.0, 1);
  EXPECT_EQ(notifications, 3);
}

TEST(LogicalClock, JumpStepsValueAndNotifies) {
  LogicalClock clock(0.0, 0.0, 1.0);
  CountingObserver observer;
  int& notifications = observer.notifications;
  clock.set_rate_observer(&observer);
  EXPECT_DOUBLE_EQ(clock.read(5.0), 5.0);
  clock.jump(5.0, 2.0);
  EXPECT_EQ(notifications, 1);
  EXPECT_DOUBLE_EQ(clock.read(5.0), 2.0);
  EXPECT_DOUBLE_EQ(clock.read(6.0), 3.0);
}

TEST(LogicalClock, InitialValueOffsetSupported) {
  LogicalClock clock(0.1, 0.1, 1.0, 0.0, 42.0);
  EXPECT_DOUBLE_EQ(clock.read(0.0), 42.0);
}

// Property: for any admissible (δ, γ, h) the rate stays within the
// Lemma B.4 envelope [1, ϑ_max] = [1, (1+2ϕ/(1−ϕ))(1+µ)(1+ρ)].
TEST(LogicalClock, RateEnvelopeProperty) {
  const double phi = 0.2;
  const double mu = 0.05;
  const double rho = 1e-3;
  const double theta_max = (1.0 + 2.0 * phi / (1.0 - phi)) * (1.0 + mu) *
                           (1.0 + rho);
  sim::Rng rng(99);
  LogicalClock clock(phi, mu, 1.0);
  for (int i = 1; i <= 1000; ++i) {
    const sim::Time t = static_cast<sim::Time>(i);
    clock.set_delta(t, rng.uniform(0.0, 2.0 / (1.0 - phi)));
    clock.set_gamma(t, rng.chance(0.5) ? 1 : 0);
    clock.set_hardware_rate(t, rng.uniform(1.0, 1.0 + rho));
    EXPECT_GE(clock.rate(), 1.0);
    EXPECT_LE(clock.rate(), theta_max + 1e-12);
  }
}

}  // namespace
}  // namespace ftgcs::clocks
