// InterclusterController decision policy (Algorithm 2 + Theorem C.3):
// priority FT > ST > catch-up > default-slow, on unit and weighted edges.
#include "core/intercluster.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"

namespace ftgcs::core {
namespace {

constexpr double kKappa = 3.0;
constexpr double kSlack = 1.0;  // δ = κ/3, the Lemma 4.8 choice
constexpr double kCGlobal = 6.0;

InterclusterController controller(bool global_module = true) {
  return InterclusterController(kKappa, kSlack, kCGlobal, global_module);
}

/// A decision on a uniform network: every edge weight is 1.
ModeDecision decide(const InterclusterController& ctl, double self,
                    const std::vector<double>& ests, double max_estimate) {
  const std::vector<double> ones(ests.size(), 1.0);
  return ctl.decide(self, ests, ones, max_estimate);
}

TEST(Intercluster, FastTriggerWins) {
  const auto ctl = controller();
  // Neighbor 2κ−δ = 5 ahead → FT(s=1).
  const std::vector<double> ests{6.0};
  const ModeDecision d = decide(ctl, 0.0, ests, 0.0);
  EXPECT_EQ(d.gamma, 1);
  EXPECT_EQ(d.reason, ModeReason::kFastTrigger);
}

TEST(Intercluster, SlowTriggerWhenAhead) {
  const auto ctl = controller();
  // We lead by κ−δ = 2 → ST(s=1).
  const std::vector<double> ests{-2.5};
  const ModeDecision d = decide(ctl, 0.0, ests, 0.0);
  EXPECT_EQ(d.gamma, 0);
  EXPECT_EQ(d.reason, ModeReason::kSlowTrigger);
}

TEST(Intercluster, CatchUpWhenNoTriggerAndFarBehindMax) {
  const auto ctl = controller();
  // Neighbors level with us (no triggers), but M says the system max is
  // far ahead: L ≤ M − c·δ = M − 6.
  const std::vector<double> ests{0.5};
  const ModeDecision d = decide(ctl, 0.0, ests, 7.0);
  EXPECT_EQ(d.gamma, 1);
  EXPECT_EQ(d.reason, ModeReason::kMaxCatchUp);
}

TEST(Intercluster, SlowTriggerBeatsCatchUp) {
  const auto ctl = controller();
  // ST holds AND we are far behind the max: Theorem C.3's policy obeys
  // the triggers first (the second rule applies only "if neither holds").
  const std::vector<double> ests{-2.5};
  const ModeDecision d = decide(ctl, 0.0, ests, 100.0);
  EXPECT_EQ(d.gamma, 0);
  EXPECT_EQ(d.reason, ModeReason::kSlowTrigger);
}

TEST(Intercluster, DefaultSlowOtherwise) {
  const auto ctl = controller();
  const std::vector<double> ests{0.5, -0.5};
  const ModeDecision d = decide(ctl, 0.0, ests, 1.0);
  EXPECT_EQ(d.gamma, 0);
  EXPECT_EQ(d.reason, ModeReason::kDefaultSlow);
}

TEST(Intercluster, DisabledGlobalModuleNeverCatchesUp) {
  const auto ctl = controller(/*global_module=*/false);
  const std::vector<double> ests{0.0};
  const ModeDecision d = decide(ctl, 0.0, ests, 1000.0);
  EXPECT_EQ(d.gamma, 0);
  EXPECT_EQ(d.reason, ModeReason::kDefaultSlow);
}

TEST(Intercluster, IsolatedClusterUsesCatchUpOnly) {
  const auto ctl = controller();
  const std::vector<double> no_neighbors;
  EXPECT_EQ(decide(ctl, 0.0, no_neighbors, 100.0).reason,
            ModeReason::kMaxCatchUp);
  EXPECT_EQ(decide(ctl, 0.0, no_neighbors, 1.0).reason,
            ModeReason::kDefaultSlow);
}

TEST(Intercluster, UnitWeightsDecideAsThePlainTriggers) {
  // At unit weights the weighted triggers are the plain ones (see
  // core/triggers.h), so the decision follows fast_trigger / slow_trigger.
  const auto ctl = controller(/*global_module=*/false);
  sim::Rng rng(707);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<double> ests;
    const int n = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < n; ++i) ests.push_back(rng.uniform(-20.0, 20.0));
    const TriggerView plain{0.0, ests};
    const ModeReason expected =
        fast_trigger(plain, kKappa, kSlack)   ? ModeReason::kFastTrigger
        : slow_trigger(plain, kKappa, kSlack) ? ModeReason::kSlowTrigger
                                              : ModeReason::kDefaultSlow;
    EXPECT_EQ(decide(ctl, 0.0, ests, 0.0).reason, expected)
        << "trial " << trial;
  }
}

TEST(Intercluster, WeightedHeavyEdgeSuppressesTrigger) {
  const auto ctl = controller();
  const std::vector<double> ests{6.0};  // FT on a unit edge
  const std::vector<double> heavy{3.0};  // κ_e = 3κ, δ_e = 3δ
  const ModeDecision d = ctl.decide(0.0, ests, heavy, 0.0);
  EXPECT_EQ(d.reason, ModeReason::kDefaultSlow);
}

TEST(Intercluster, RejectsNonExclusiveSlack) {
  // δ ≥ 2κ violates even the paper's (loose) Lemma 4.5 precondition.
  EXPECT_DEATH(InterclusterController(1.0, 2.0, kCGlobal, true),
               "precondition");
}

}  // namespace
}  // namespace ftgcs::core
