// Fast/slow conditions and triggers (Definitions 4.1–4.4).
//
// Conditions (FC/SC) are defined on the true cluster clocks and are used by
// the analysis (and by our ground-truth metrics); triggers (FT/ST) are what
// nodes can actually evaluate, on estimates, with slack δ:
//
//   FT: ∃s∈ℕ:  max_A (L̃_A − L_v) ≥ 2sκ − δ   and
//              max_B (L_v − L̃_B) ≤ 2sκ + δ
//   ST: ∃s∈ℕ:  max_A (L_v − L̃_A) ≥ (2s−1)κ − δ   and
//              max_B (L̃_B − L_v) ≤ (2s−1)κ + δ
//
// The existential over s ∈ {1, 2, ...} reduces to an interval check on s;
// we implement the closed form (and test it against a brute-force loop).
//
// Mutual exclusion (Lemma 4.5). The paper states FT/ST exclusivity for all
// δ < 2κ; property testing this implementation found a counterexample at
// δ ≥ κ/2 (e.g. δ = 0.6κ with one neighbor 1.5κ ahead and another 0.5κ
// behind satisfies both FT(s=1) and ST(s=1)). The derivation shows the
// sharp sufficient condition is δ < κ/2 — which the paper's own parameter
// choice δ = κ/3 (Lemma 4.8) satisfies, so the construction is unaffected.
// See tests/test_triggers.cpp (MutualExclusion*).
#pragma once

#include <span>

namespace ftgcs::core {

/// Inputs to one trigger evaluation: own value and one estimate per
/// adjacent cluster (order irrelevant; only max gaps matter).
struct TriggerView {
  double self = 0.0;
  std::span<const double> neighbors;
};

bool fast_trigger(const TriggerView& view, double kappa, double slack);
bool slow_trigger(const TriggerView& view, double kappa, double slack);

/// Weighted variant (paper footnote 1 / App. A: "the algorithm
/// generalizes to networks in which edges e = {v,w} have weight ε_e ...
/// by doing nothing more than choosing κ proportional to ε_e"): the edge
/// to each neighbor has a weight w_e, and its constants scale with it,
/// κ_e = w_e·κ and δ_e = w_e·δ. The level conditions become, per
/// neighbor A/B,
///   FT: ∃s∈ℕ:  est_A − self ≥ 2s·κ_A − δ_A  ∧  self − est_B ≤ 2s·κ_B + δ_B
///   ST: ∃s∈ℕ:  self − est_A ≥ (2s−1)κ_A − δ_A ∧ est_B − self ≤ (2s−1)κ_B + δ_B
/// and the existential reduces to an interval check after per-edge
/// normalization. `weights` is parallel to view.neighbors. At unit
/// weights the result is fast_trigger/slow_trigger's, bit for bit: the
/// per-edge terms are monotone in the gap, so the max over edges commutes
/// with them, and halving is exact.
struct WeightedTriggerView {
  double self = 0.0;
  std::span<const double> neighbors;
  std::span<const double> weights;
};

bool weighted_fast_trigger(const WeightedTriggerView& view, double kappa,
                           double slack);
bool weighted_slow_trigger(const WeightedTriggerView& view, double kappa,
                           double slack);

/// Ground-truth conditions: triggers with zero slack on true cluster
/// clocks (Definitions 4.1 / 4.2).
inline bool fast_condition(const TriggerView& view, double kappa) {
  return fast_trigger(view, kappa, 0.0);
}
inline bool slow_condition(const TriggerView& view, double kappa) {
  return slow_trigger(view, kappa, 0.0);
}

}  // namespace ftgcs::core
