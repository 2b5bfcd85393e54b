#include "core/intercluster.h"

#include "support/assert.h"

namespace ftgcs::core {

InterclusterController::InterclusterController(double kappa, double slack,
                                               double c_global,
                                               bool use_global_module)
    : kappa_(kappa),
      slack_(slack),
      c_global_(c_global),
      use_global_module_(use_global_module) {
  FTGCS_EXPECTS(kappa > 0.0);
  FTGCS_EXPECTS(slack >= 0.0);
  // Lemma 4.5: triggers are mutually exclusive only for δ < 2κ.
  FTGCS_EXPECTS(slack < 2.0 * kappa);
}

ModeDecision InterclusterController::decide(double self,
                                            std::span<const double> estimates,
                                            std::span<const double> weights,
                                            double max_estimate) const {
  FTGCS_EXPECTS(weights.size() == estimates.size());
  if (!estimates.empty()) {
    const WeightedTriggerView view{self, estimates, weights};
    if (weighted_fast_trigger(view, kappa_, slack_)) {
      return {1, ModeReason::kFastTrigger};
    }
    if (weighted_slow_trigger(view, kappa_, slack_)) {
      return {0, ModeReason::kSlowTrigger};
    }
  }
  // No trigger (or an isolated cluster, with no gradient constraints):
  // catch up if the global module demands it, else stay slow.
  if (use_global_module_ && self <= max_estimate - c_global_ * slack_) {
    return {1, ModeReason::kMaxCatchUp};
  }
  return {0, ModeReason::kDefaultSlow};
}

}  // namespace ftgcs::core
