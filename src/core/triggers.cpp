#include "core/triggers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/assert.h"

namespace ftgcs::core {

namespace {

/// Largest gap L̃_B − self over neighbors (how far ahead the most-ahead
/// neighbor is), and self − L̃_B (how far behind the most-behind one is).
struct Gaps {
  double max_ahead;   // max_B (est_B − self)
  double max_behind;  // max_B (self − est_B)
};

Gaps gaps_of(const TriggerView& view) {
  FTGCS_EXPECTS(!view.neighbors.empty());
  double max_ahead = -std::numeric_limits<double>::infinity();
  double max_behind = -std::numeric_limits<double>::infinity();
  for (double est : view.neighbors) {
    max_ahead = std::max(max_ahead, est - view.self);
    max_behind = std::max(max_behind, view.self - est);
  }
  return {max_ahead, max_behind};
}

}  // namespace

bool fast_trigger(const TriggerView& view, double kappa, double slack) {
  FTGCS_EXPECTS(kappa > 0.0);
  FTGCS_EXPECTS(slack >= 0.0);
  const Gaps g = gaps_of(view);
  // FT-1: ∃s with up ≥ 2sκ − δ  ⟺  s ≤ (up + δ) / 2κ
  // FT-2: ∀B self − est_B ≤ 2sκ + δ  ⟺  s ≥ (behind − δ) / 2κ
  const double s_hi = std::floor((g.max_ahead + slack) / (2.0 * kappa));
  const double s_lo =
      std::max(1.0, std::ceil((g.max_behind - slack) / (2.0 * kappa)));
  return s_hi >= s_lo;
}

bool slow_trigger(const TriggerView& view, double kappa, double slack) {
  FTGCS_EXPECTS(kappa > 0.0);
  FTGCS_EXPECTS(slack >= 0.0);
  const Gaps g = gaps_of(view);
  // ST-1: ∃s with behind ≥ (2s−1)κ − δ ⟺ 2s−1 ≤ (behind + δ)/κ
  // ST-2: ∀B est_B − self ≤ (2s−1)κ + δ ⟺ 2s−1 ≥ (ahead − δ)/κ
  const double m_hi = (g.max_behind + slack) / kappa;   // upper bound on 2s−1
  const double m_lo = (g.max_ahead - slack) / kappa;    // lower bound on 2s−1
  const double s_hi = std::floor((m_hi + 1.0) / 2.0);
  const double s_lo = std::max(1.0, std::ceil((m_lo + 1.0) / 2.0));
  return s_hi >= s_lo;
}

namespace {

/// Per-edge normalization: dividing edge i's conditions by its κ_e = w_i·κ
/// (with δ_e = w_i·δ) turns the weighted existential into the same
/// interval check as the uniform case. Returns max_A (est_A − self +
/// δ_A)/κ_A and max_B (self − est_B − δ_B)/κ_B for the signed slack δ
/// (ST passes −δ; x + (−y) is x − y exactly).
std::pair<double, double> weighted_gaps(const WeightedTriggerView& view,
                                        double kappa, double slack) {
  FTGCS_EXPECTS(!view.neighbors.empty());
  FTGCS_EXPECTS(view.weights.size() == view.neighbors.size());
  FTGCS_EXPECTS(kappa > 0.0);
  double ahead = -std::numeric_limits<double>::infinity();
  double behind = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < view.neighbors.size(); ++i) {
    const double weight = view.weights[i];
    FTGCS_EXPECTS(weight > 0.0);
    const double kappa_e = weight * kappa;
    const double slack_e = weight * slack;
    const double est = view.neighbors[i];
    ahead = std::max(ahead, (est - view.self + slack_e) / kappa_e);
    behind = std::max(behind, (view.self - est - slack_e) / kappa_e);
  }
  return {ahead, behind};
}

}  // namespace

bool weighted_fast_trigger(const WeightedTriggerView& view, double kappa,
                           double slack) {
  FTGCS_EXPECTS(slack >= 0.0);
  const auto [ahead, behind] = weighted_gaps(view, kappa, slack);
  // FT-1: ∃A: (est_A − self + δ_A)/κ_A ≥ 2s   ⟺ s ≤ ahead / 2
  // FT-2: ∀B: (self − est_B − δ_B)/κ_B ≤ 2s   ⟺ s ≥ behind / 2
  const double s_hi = std::floor(ahead / 2.0);
  const double s_lo = std::max(1.0, std::ceil(behind / 2.0));
  return s_hi >= s_lo;
}

bool weighted_slow_trigger(const WeightedTriggerView& view, double kappa,
                           double slack) {
  FTGCS_EXPECTS(slack >= 0.0);
  // ST-1: ∃A: (self − est_A + δ_A)/κ_A ≥ 2s−1   (lead)
  // ST-2: ∀B: (est_B − self − δ_B)/κ_B ≤ 2s−1   (chased)
  const auto [chased, lead] = weighted_gaps(view, kappa, -slack);
  const double s_hi = std::floor((lead + 1.0) / 2.0);
  const double s_lo = std::max(1.0, std::ceil((chased + 1.0) / 2.0));
  return s_hi >= s_lo;
}

}  // namespace ftgcs::core
