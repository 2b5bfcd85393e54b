// Global-skew module (Appendix C): M_v growth, level pulses, f+1 quorum
// rule, own-clock lower bound, and the system-level invariants
// M_v ≤ L^max and bounded lag.
#include "core/global_skew.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/ftgcs_system.h"
#include "net/graph.h"

namespace ftgcs::core {
namespace {

/// Estimators borrow their config, so the shared one outlives them all.
const MaxEstimator::Config& unit_config() {
  static const MaxEstimator::Config cfg = [] {
    MaxEstimator::Config c;
    c.d = 1.0;
    c.U = 0.2;  // spacing d−U = 0.8
    c.rho = 1e-3;
    c.f = 1;
    return c;
  }();
  return cfg;
}

TEST(MaxEstimator, GrowsAtDampedHardwareRate) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0 + 1e-3);
  // rate = h/(1+ρ) = 1 exactly when h = 1+ρ.
  EXPECT_NEAR(m.read(10.0), 10.0, 1e-12);
}

TEST(MaxEstimator, EmitsLevelsAtSpacingMultiples) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  std::vector<std::pair<int, sim::Time>> emitted;
  m.on_emit = [&](int level) { emitted.emplace_back(level, sim.now()); };
  m.start();
  sim.run_until(2.0);
  // rate = 1/(1+ρ); level ℓ at t = ℓ·0.8·(1+ρ).
  ASSERT_GE(emitted.size(), 2u);
  EXPECT_EQ(emitted[0].first, 1);
  EXPECT_NEAR(emitted[0].second, 0.8 * (1.0 + 1e-3), 1e-9);
  EXPECT_EQ(emitted[1].first, 2);
  EXPECT_NEAR(emitted[1].second, 1.6 * (1.0 + 1e-3), 1e-9);
}

TEST(MaxEstimator, QuorumJumpRequiresFPlusOne) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  m.on_emit = [](int) {};
  m.start();
  // One member of cluster 7 reports level 5: no jump (f = 1 needs 2).
  m.on_level_pulse(7, 0, false, 5, 0.0);
  EXPECT_NEAR(m.read(0.0), 0.0, 1e-12);
  // Duplicate from the same member: still no jump.
  m.on_level_pulse(7, 0, false, 5, 0.0);
  EXPECT_NEAR(m.read(0.0), 0.0, 1e-12);
  // Second distinct member: jump to (5+1)·0.8 = 4.8.
  m.on_level_pulse(7, 1, false, 5, 0.0);
  EXPECT_NEAR(m.read(0.0), 4.8, 1e-12);
  EXPECT_EQ(m.jumps(), 1u);
}

TEST(MaxEstimator, QuorumMustBeWithinOneCluster) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  m.on_emit = [](int) {};
  m.start();
  // One member each from two different clusters: no quorum.
  m.on_level_pulse(7, 0, false, 5, 0.0);
  m.on_level_pulse(8, 0, false, 5, 0.0);
  EXPECT_NEAR(m.read(0.0), 0.0, 1e-12);
}

TEST(MaxEstimator, SelfPulsesIgnored) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  m.on_emit = [](int) {};
  m.start();
  m.on_level_pulse(7, 0, true, 5, 0.0);
  m.on_level_pulse(7, 1, true, 5, 0.0);
  EXPECT_NEAR(m.read(0.0), 0.0, 1e-12);
}

TEST(MaxEstimator, JumpEmitsSkippedLevels) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  std::vector<int> emitted;
  m.on_emit = [&](int level) { emitted.push_back(level); };
  m.start();
  m.on_level_pulse(3, 0, false, 4, 0.0);
  m.on_level_pulse(3, 2, false, 4, 0.0);  // jump to 4.0 → levels 1..5
  ASSERT_EQ(emitted.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(emitted[i], i + 1);
}

TEST(MaxEstimator, ForgedHugeLevelsAreCheapAndQuorumStillWorks) {
  // A Byzantine node may broadcast kMaxLevel pulses with arbitrary levels;
  // counting them must not cost memory proportional to the level value,
  // and an (impossible-for-correct-nodes) singleton never forms a quorum.
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  m.on_emit = [](int) {};
  m.start();
  m.on_level_pulse(7, 0, false, 1000000000, 0.0);
  m.on_level_pulse(7, 0, false, 999999999, 0.0);
  // Forged levels below the first emittable level (1) are dropped outright.
  m.on_level_pulse(7, 0, false, 0, 0.0);
  m.on_level_pulse(7, 1, false, 0, 0.0);
  EXPECT_NEAR(m.read(0.0), 0.0, 1e-12);
  // A full quorum at a forged far-future level still jumps (the rule only
  // needs f+1 distinct members), exactly as with the sparse-map storage.
  m.on_level_pulse(7, 1, false, 1000000000, 0.0);
  EXPECT_NEAR(m.read(0.0), 1000000001.0 * 0.8, 1e-3);
  EXPECT_EQ(m.jumps(), 1u);
}

TEST(MaxEstimator, QuorumAcrossManyMembersBeyondSixtyFour) {
  // Clusters larger than 64 members (f >= 22, k = 3f+1) must still count
  // distinct members correctly across bitmask words.
  sim::Simulator sim;
  MaxEstimator::Config cfg = unit_config();
  cfg.f = 22;  // quorum 23, k = 67
  MaxEstimator m(sim, cfg, 1.0);
  m.on_emit = [](int) {};
  m.start();
  for (int member = 44; member < 66; ++member) {
    m.on_level_pulse(3, member, false, 5, 0.0);  // 22 distinct: no quorum
  }
  EXPECT_NEAR(m.read(0.0), 0.0, 1e-12);
  m.on_level_pulse(3, 66, false, 5, 0.0);  // 23rd distinct member
  EXPECT_NEAR(m.read(0.0), 4.8, 1e-12);
}

TEST(MaxEstimator, OverflowMigrationSurvivesBaseSlidePlusRegrowInOneCall) {
  // Regression pin for the heard-window bookkeeping when ONE insert
  // triggers all three rare transitions at once: the staleness floor
  // slides the window base by thousands of levels, the per-level stride
  // regrows (member index ≥ 128 ⇒ 1 → 3 words), and a sparse overflow
  // level gets pulled into dense range and must be OR-migrated at the NEW
  // width. A width mismatch anywhere loses or fabricates member bits,
  // which shows up here as a quorum that fires too early or not at all.
  sim::Simulator sim;
  MaxEstimator::Config cfg;
  cfg.d = 1.0;
  cfg.U = 0.0;  // spacing 1: level ℓ ⇔ value ℓ exactly
  cfg.rho = 1e-3;
  cfg.f = 2;  // quorum 3
  MaxEstimator m(sim, cfg, 1.0);
  m.on_emit = [](int) {};
  m.start();

  // Far-future level 5000 (> base 1 + window 4096): sparse overflow entry,
  // 1-word mask, member 0.
  m.on_level_pulse(7, 0, false, 5000, 0.0);
  // Member 70 forces the first regrow (2 words); the overflow mask of
  // level 5000 must widen with it.
  m.on_level_pulse(7, 70, false, 2, 0.0);
  EXPECT_EQ(m.jumps(), 0u);

  // Own clock at 4999.25 emits levels 1..4999: the staleness floor is now
  // 4999, so the next insert must slide the base past the entire dense
  // window while level 5000 becomes in-range.
  m.observe_own_clock(4999.25, 0.0);
  EXPECT_EQ(m.highest_level_sent(), 4999);

  // One call: base 1 → 4999, regrow 2 → 3 words (member 140), and the
  // overflow entry for level 5000 migrates into the dense window. Members
  // heard at level 5000: {0 (migrated), 140} — still below quorum.
  m.on_level_pulse(7, 140, false, 5000, 0.0);
  EXPECT_EQ(m.jumps(), 0u);
  // A duplicate of the migrated member must not mint a third bit.
  m.on_level_pulse(7, 0, false, 5000, 0.0);
  EXPECT_EQ(m.jumps(), 0u);
  EXPECT_NEAR(m.read(0.0), 4999.25, 1e-12);

  // The genuine third member completes the quorum: M ← (5000+1)·spacing.
  m.on_level_pulse(7, 70, false, 5000, 0.0);
  EXPECT_EQ(m.jumps(), 1u);
  EXPECT_NEAR(m.read(0.0), 5001.0, 1e-12);
  EXPECT_EQ(m.highest_level_sent(), 5001);
}

TEST(MaxEstimator, JumpsAreMonotone) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  m.on_emit = [](int) {};
  m.start();
  m.on_level_pulse(3, 0, false, 9, 0.0);
  m.on_level_pulse(3, 1, false, 9, 0.0);
  const double high = m.read(0.0);
  // Lower-level quorum afterwards must not decrease M.
  m.on_level_pulse(4, 0, false, 2, 0.0);
  m.on_level_pulse(4, 1, false, 2, 0.0);
  EXPECT_DOUBLE_EQ(m.read(0.0), high);
}

TEST(MaxEstimator, ObserveOwnClockLiftsM) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  std::vector<int> emitted;
  m.on_emit = [&](int level) { emitted.push_back(level); };
  m.start();
  m.observe_own_clock(2.0, 0.0);
  EXPECT_NEAR(m.read(0.0), 2.0, 1e-12);
  // Levels 1 and 2 (0.8, 1.6) are now covered and must have been emitted.
  ASSERT_EQ(emitted.size(), 2u);
  // Lower own values never pull M down.
  m.observe_own_clock(1.0, 0.0);
  EXPECT_NEAR(m.read(0.0), 2.0, 1e-12);
}

TEST(MaxEstimator, RateChangeReschedulesEmission) {
  sim::Simulator sim;
  MaxEstimator m(sim, unit_config(), 1.0);
  std::vector<sim::Time> times;
  m.on_emit = [&](int) { times.push_back(sim.now()); };
  m.start();
  sim.run_until(0.4);
  // Halving the hardware rate delays the first emission proportionally.
  m.set_hardware_rate(0.4, 0.5);
  sim.run_until(3.0);
  ASSERT_GE(times.size(), 1u);
  // M(0.4) = 0.4/(1+ρ); remaining to 0.8: ≈0.4·(1+..) at rate 0.5/(1+ρ).
  const double expected =
      0.4 + (0.8 - 0.4 / 1.001) / (0.5 / 1.001);
  EXPECT_NEAR(times[0], expected, 1e-9);
}

// ---- system-level invariants -------------------------------------------

TEST(GlobalSkewSystem, MvNeverExceedsLmax) {
  Params params = Params::practical(1e-3, 1.0, 0.01, 1);
  FtGcsSystem::Config config;
  config.params = params;
  config.seed = 3;
  // A ramp so catch-up and flooding both engage.
  for (int c = 0; c < 6; ++c) config.cluster_round_offsets.push_back(3 * c);
  FtGcsSystem system(net::Graph::line(6), std::move(config));
  system.start();
  for (int step = 1; step <= 100; ++step) {
    system.run_until(step * params.T);
    double lmax = 0.0;
    for (int id = 0; id < system.topology().num_nodes(); ++id) {
      lmax = std::max(lmax, system.node_logical(id));
    }
    for (int id = 0; id < system.topology().num_nodes(); ++id) {
      EXPECT_LE(system.node(id).max_estimate(system.simulator().now()),
                lmax + 1e-9)
          << "node " << id << " step " << step;
    }
  }
}

TEST(GlobalSkewSystem, MvLagIsBounded) {
  // Lemma C.2: L^max − M_v = O(δ·D). Measured with a generous constant.
  Params params = Params::practical(1e-3, 1.0, 0.01, 1);
  const int clusters = 6;
  FtGcsSystem::Config config;
  config.params = params;
  config.seed = 4;
  for (int c = 0; c < clusters; ++c) {
    config.cluster_round_offsets.push_back(3 * c);
  }
  FtGcsSystem system(net::Graph::line(clusters), std::move(config));
  system.start();
  system.run_until(60.0 * params.T);
  double lmax = 0.0;
  for (int id = 0; id < system.topology().num_nodes(); ++id) {
    lmax = std::max(lmax, system.node_logical(id));
  }
  const int diameter = clusters - 1;
  for (int id = 0; id < system.topology().num_nodes(); ++id) {
    const double m = system.node(id).max_estimate(system.simulator().now());
    EXPECT_LE(lmax - m, 4.0 * params.delta_trig * diameter + 4.0 * params.d)
        << "node " << id;
  }
}

}  // namespace
}  // namespace ftgcs::core
