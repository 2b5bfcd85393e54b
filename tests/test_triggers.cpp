// Trigger logic: closed-form existential-s search vs. brute force, and
// Lemma 4.5 (mutual exclusion for δ < 2κ).
#include "core/triggers.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"

namespace ftgcs::core {
namespace {

// Direct transcription of Definitions 4.3/4.4 with an explicit s loop.
bool fast_brute(double self, const std::vector<double>& neighbors,
                double kappa, double slack, int s_max = 1000) {
  for (int s = 1; s <= s_max; ++s) {
    bool cond1 = false;
    bool cond2 = true;
    for (double est : neighbors) {
      if (est - self >= 2.0 * s * kappa - slack) cond1 = true;
      if (self - est > 2.0 * s * kappa + slack) cond2 = false;
    }
    if (cond1 && cond2) return true;
  }
  return false;
}

bool slow_brute(double self, const std::vector<double>& neighbors,
                double kappa, double slack, int s_max = 1000) {
  for (int s = 1; s <= s_max; ++s) {
    const double level = (2.0 * s - 1.0) * kappa;
    bool cond1 = false;
    bool cond2 = true;
    for (double est : neighbors) {
      if (self - est >= level - slack) cond1 = true;
      if (est - self > level + slack) cond2 = false;
    }
    if (cond1 && cond2) return true;
  }
  return false;
}

TEST(Triggers, FastFiresOnLargeAheadNeighbor) {
  const double kappa = 3.0, slack = 1.0;
  const std::vector<double> neighbors{10.0, 0.0};
  // ahead = 10 ≥ 2κ−δ = 5 (s=1); behind = 0 ≤ 2κ+δ = 7. → FT.
  EXPECT_TRUE(fast_trigger({0.0, neighbors}, kappa, slack));
}

TEST(Triggers, FastBlockedByLaggingNeighbor) {
  const double kappa = 3.0, slack = 1.0;
  // ahead = 6 allows s=1 (≥5); but behind = 20 needs s ≥ (20−1)/6 → s≥4;
  // s=4 needs ahead ≥ 24−1=23. No s works.
  const std::vector<double> neighbors{6.0, -20.0};
  EXPECT_FALSE(fast_trigger({0.0, neighbors}, kappa, slack));
}

TEST(Triggers, FastHigherLevelSatisfiable) {
  const double kappa = 3.0, slack = 1.0;
  // behind = 8 → s ≥ ceil(7/6) = 2; ahead = 12 ≥ 2·2·3−1 = 11 → s=2 works.
  const std::vector<double> neighbors{12.0, -8.0};
  EXPECT_TRUE(fast_trigger({0.0, neighbors}, kappa, slack));
}

TEST(Triggers, SlowFiresWhenAhead) {
  const double kappa = 3.0, slack = 1.0;
  // behind(us ahead of A) = 4 ≥ κ−δ = 2 (s=1); nobody ahead of us by > κ+δ.
  const std::vector<double> neighbors{-4.0, 1.0};
  EXPECT_TRUE(slow_trigger({0.0, neighbors}, kappa, slack));
}

TEST(Triggers, SlowBlockedByFarAheadNeighbor) {
  const double kappa = 3.0, slack = 1.0;
  // We lead someone by 4 (s=1 candidate), but another neighbor is ahead of
  // us by 20 > κ+δ = 4 → s=1 fails; s=2: need lead ≥ 3κ−δ = 8 — no.
  const std::vector<double> neighbors{-4.0, 20.0};
  EXPECT_FALSE(slow_trigger({0.0, neighbors}, kappa, slack));
}

TEST(Triggers, ZeroSlackGivesConditions) {
  // FC: some neighbor ≥ 2κ ahead, none ≥ 2κ behind (s=1).
  const double kappa = 2.0;
  EXPECT_TRUE(fast_condition({0.0, std::vector<double>{4.0}}, kappa));
  EXPECT_FALSE(fast_condition({0.0, std::vector<double>{3.9}}, kappa));
  EXPECT_TRUE(slow_condition({0.0, std::vector<double>{-2.0}}, kappa));
  EXPECT_FALSE(slow_condition({0.0, std::vector<double>{-1.9}}, kappa));
}

TEST(Triggers, ClosedFormMatchesBruteForceProperty) {
  sim::Rng rng(4242);
  for (int trial = 0; trial < 20000; ++trial) {
    const double kappa = rng.uniform(0.5, 5.0);
    const double slack = rng.uniform(0.0, 1.9) * kappa;  // δ < 2κ
    const int n = 1 + static_cast<int>(rng.below(5));
    std::vector<double> neighbors;
    for (int i = 0; i < n; ++i) {
      neighbors.push_back(rng.uniform(-40.0, 40.0));
    }
    const TriggerView view{0.0, neighbors};
    EXPECT_EQ(fast_trigger(view, kappa, slack),
              fast_brute(0.0, neighbors, kappa, slack))
        << "trial " << trial << " kappa=" << kappa << " slack=" << slack;
    EXPECT_EQ(slow_trigger(view, kappa, slack),
              slow_brute(0.0, neighbors, kappa, slack))
        << "trial " << trial << " kappa=" << kappa << " slack=" << slack;
  }
}

TEST(Triggers, MutualExclusionHoldsBelowHalfKappa) {
  // Sharp form of Lemma 4.5: for δ < κ/2 the triggers are mutually
  // exclusive. (The paper claims δ < 2κ suffices; see the counterexample
  // test below. The paper's own choice δ = κ/3 is safely below κ/2.)
  sim::Rng rng(777);
  int ft_count = 0;
  int st_count = 0;
  for (int trial = 0; trial < 50000; ++trial) {
    const double kappa = rng.uniform(0.5, 4.0);
    const double slack = rng.uniform(0.0, 0.499) * kappa;
    const int n = 1 + static_cast<int>(rng.below(6));
    std::vector<double> neighbors;
    for (int i = 0; i < n; ++i) {
      neighbors.push_back(rng.uniform(-30.0, 30.0));
    }
    const TriggerView view{0.0, neighbors};
    const bool ft = fast_trigger(view, kappa, slack);
    const bool st = slow_trigger(view, kappa, slack);
    EXPECT_FALSE(ft && st)
        << "both triggers at trial " << trial << " kappa=" << kappa
        << " slack=" << slack;
    ft_count += ft;
    st_count += st;
  }
  // The property test actually exercised both triggers.
  EXPECT_GT(ft_count, 100);
  EXPECT_GT(st_count, 100);
}

TEST(Triggers, PaperChoiceKappaThreeDeltaIsExclusive) {
  // Lemma 4.8 sets κ = 3δ, i.e. δ = κ/3 < κ/2: exclusivity must hold.
  sim::Rng rng(101);
  for (int trial = 0; trial < 50000; ++trial) {
    const double kappa = rng.uniform(0.5, 4.0);
    const double slack = kappa / 3.0;
    const int n = 1 + static_cast<int>(rng.below(6));
    std::vector<double> neighbors;
    for (int i = 0; i < n; ++i) {
      neighbors.push_back(rng.uniform(-30.0, 30.0));
    }
    const TriggerView view{0.0, neighbors};
    EXPECT_FALSE(fast_trigger(view, kappa, slack) &&
                 slow_trigger(view, kappa, slack))
        << "trial " << trial;
  }
}

TEST(Triggers, MutualExclusionCounterexampleAboveHalfKappa) {
  // Documented deviation from the paper's Lemma 4.5 statement: at
  // δ = 0.6κ, a node with one neighbor 1.5κ ahead and another 0.5κ
  // behind satisfies FT(s=1) (1.5κ ≥ 2κ−0.6κ; 0.5κ ≤ 2κ+0.6κ) and
  // ST(s=1) (0.5κ ≥ κ−0.6κ; 1.5κ ≤ κ+0.6κ) simultaneously.
  const double kappa = 1.0;
  const double slack = 0.6;
  const std::vector<double> neighbors{1.5, -0.5};
  const TriggerView view{0.0, neighbors};
  EXPECT_TRUE(fast_trigger(view, kappa, slack));
  EXPECT_TRUE(slow_trigger(view, kappa, slack));
}

// Brute-force transcription of the weighted definitions.
bool weighted_fast_brute(double self, const std::vector<double>& neighbors,
                         const std::vector<double>& kappas,
                         const std::vector<double>& slacks,
                         int s_max = 2000) {
  for (int s = 1; s <= s_max; ++s) {
    bool cond1 = false;
    bool cond2 = true;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] - self >= 2.0 * s * kappas[i] - slacks[i])
        cond1 = true;
      if (self - neighbors[i] > 2.0 * s * kappas[i] + slacks[i])
        cond2 = false;
    }
    if (cond1 && cond2) return true;
  }
  return false;
}

bool weighted_slow_brute(double self, const std::vector<double>& neighbors,
                         const std::vector<double>& kappas,
                         const std::vector<double>& slacks,
                         int s_max = 2000) {
  for (int s = 1; s <= s_max; ++s) {
    bool cond1 = false;
    bool cond2 = true;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const double level = (2.0 * s - 1.0) * kappas[i];
      if (self - neighbors[i] >= level - slacks[i]) cond1 = true;
      if (neighbors[i] - self > level + slacks[i]) cond2 = false;
    }
    if (cond1 && cond2) return true;
  }
  return false;
}

TEST(WeightedTriggers, ReduceToUniformWhenWeightsEqual) {
  sim::Rng rng(404);
  for (int trial = 0; trial < 5000; ++trial) {
    const double kappa = rng.uniform(0.5, 4.0);
    const double slack = rng.uniform(0.0, 0.49) * kappa;
    const int n = 1 + static_cast<int>(rng.below(4));
    std::vector<double> neighbors;
    const std::vector<double> ones(n, 1.0);
    for (int i = 0; i < n; ++i) {
      neighbors.push_back(rng.uniform(-30.0, 30.0));
    }
    const TriggerView uniform{0.0, neighbors};
    const WeightedTriggerView weighted{0.0, neighbors, ones};
    EXPECT_EQ(weighted_fast_trigger(weighted, kappa, slack),
              fast_trigger(uniform, kappa, slack))
        << "trial " << trial;
    EXPECT_EQ(weighted_slow_trigger(weighted, kappa, slack),
              slow_trigger(uniform, kappa, slack))
        << "trial " << trial;
  }
}

TEST(WeightedTriggers, WeightOneBoundaryValuesAgreeWithPlain) {
  // Weight-1 equivalence at the EXACT level boundaries: neighbors placed
  // at est − self = 2sκ ± δ (fast levels) and (2s−1)κ ± δ (slow levels),
  // where the ≥ / ≤ comparisons of Definitions 4.3/4.4 flip. All values
  // are binary-exact (κ, δ, self dyadic rationals), so a closed-form
  // normalization that mishandles a boundary (>= vs >) diverges from the
  // plain triggers here and nowhere else.
  sim::Rng rng(606);
  const double kappas_pool[] = {3.0, 0.5, 1.25};
  const double selfs_pool[] = {0.0, 64.0, -17.5};
  for (int trial = 0; trial < 20000; ++trial) {
    const double kappa = kappas_pool[rng.below(3)];
    const double slack = 0.25 * kappa;  // dyadic ⇒ 2sκ ± δ exact
    const double self = selfs_pool[rng.below(3)];
    const int n = 1 + static_cast<int>(rng.below(4));
    std::vector<double> neighbors;
    for (int i = 0; i < n; ++i) {
      if (rng.below(4) == 0) {
        neighbors.push_back(self + rng.uniform(-30.0, 30.0));
        continue;
      }
      // Exact boundary neighbor: ±(level ± δ), levels 2sκ and (2s−1)κ.
      const int s = 1 + static_cast<int>(rng.below(4));
      const double level =
          rng.below(2) == 0 ? 2.0 * s * kappa : (2.0 * s - 1.0) * kappa;
      const double offset = rng.below(2) == 0 ? level - slack : level + slack;
      neighbors.push_back(self + (rng.below(2) == 0 ? offset : -offset));
    }
    const std::vector<double> ones(n, 1.0);
    const TriggerView plain{self, neighbors};
    const WeightedTriggerView weighted{self, neighbors, ones};
    EXPECT_EQ(weighted_fast_trigger(weighted, kappa, slack),
              fast_trigger(plain, kappa, slack))
        << "fast trial " << trial;
    EXPECT_EQ(weighted_slow_trigger(weighted, kappa, slack),
              slow_trigger(plain, kappa, slack))
        << "slow trial " << trial;
    // Both must also match the definitional brute force at the boundary.
    EXPECT_EQ(fast_trigger(plain, kappa, slack),
              fast_brute(self, neighbors, kappa, slack))
        << "fast-brute trial " << trial;
    EXPECT_EQ(slow_trigger(plain, kappa, slack),
              slow_brute(self, neighbors, kappa, slack))
        << "slow-brute trial " << trial;
  }
}

TEST(WeightedTriggers, ClosedFormMatchesBruteForceProperty) {
  sim::Rng rng(505);
  for (int trial = 0; trial < 10000; ++trial) {
    const double kappa = rng.uniform(0.5, 2.0);
    const double slack = rng.uniform(0.0, 0.49) * kappa;
    const int n = 1 + static_cast<int>(rng.below(4));
    std::vector<double> neighbors;
    std::vector<double> weights;
    std::vector<double> kappas;  // κ_e = w_e·κ, δ_e = w_e·δ
    std::vector<double> slacks;
    for (int i = 0; i < n; ++i) {
      neighbors.push_back(rng.uniform(-30.0, 30.0));
      weights.push_back(rng.uniform(0.5, 3.0));
      kappas.push_back(weights.back() * kappa);
      slacks.push_back(weights.back() * slack);
    }
    const WeightedTriggerView view{0.0, neighbors, weights};
    EXPECT_EQ(weighted_fast_trigger(view, kappa, slack),
              weighted_fast_brute(0.0, neighbors, kappas, slacks))
        << "trial " << trial;
    EXPECT_EQ(weighted_slow_trigger(view, kappa, slack),
              weighted_slow_brute(0.0, neighbors, kappas, slacks))
        << "trial " << trial;
  }
}

TEST(WeightedTriggers, HeavyEdgeToleratesProportionallyMoreSkew) {
  // A neighbor behind by 1.5κ on a weight-1 edge blocks FT (needs s with
  // behind ≤ 2sκ+δ... s≥1 works — use a clearer case): a neighbor ahead
  // by 3κ on a weight-1 edge fast-triggers at s=1, but the same gap on a
  // weight-3 edge (κ_e = 3κ, δ_e = 3δ) does not.
  const double kappa = 2.0;
  const double slack = 0.5;
  const std::vector<double> neighbors{6.0};  // 3κ ahead
  const std::vector<double> unit{1.0};
  const std::vector<double> heavy{3.0};
  EXPECT_TRUE(weighted_fast_trigger({0.0, neighbors, unit}, kappa, slack));
  EXPECT_FALSE(weighted_fast_trigger({0.0, neighbors, heavy}, kappa, slack));
}

TEST(Triggers, SelfOffsetInvariance) {
  // Triggers depend only on differences; shifting all values together
  // changes nothing.
  sim::Rng rng(31);
  for (int trial = 0; trial < 1000; ++trial) {
    const double kappa = 2.0, slack = 1.0;
    const double shift = rng.uniform(-100.0, 100.0);
    std::vector<double> base, shifted;
    const int n = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < n; ++i) {
      const double v = rng.uniform(-20.0, 20.0);
      base.push_back(v);
      shifted.push_back(v + shift);
    }
    EXPECT_EQ(fast_trigger({0.0, base}, kappa, slack),
              fast_trigger({shift, shifted}, kappa, slack));
    EXPECT_EQ(slow_trigger({0.0, base}, kappa, slack),
              slow_trigger({shift, shifted}, kappa, slack));
  }
}

}  // namespace
}  // namespace ftgcs::core
