// InterclusterSync (Algorithm 2) mode policy.
//
// At the beginning of each ClusterSync round a node picks its mode γ_v for
// the whole round:
//
//   1. fast trigger FT satisfied            → γ = 1
//   2. slow trigger ST satisfied            → γ = 0
//   3. global-skew catch-up (Theorem C.3):
//      L_v ≤ M_v − c·δ                      → γ = 1
//   4. otherwise                            → γ = 0  (default slow;
//      required by Lemmas C.1/C.2)
//
// Rule 3 is optional (the global-skew module can be disabled for
// experiments that study the gradient layer in isolation).
#pragma once

#include <cstdint>
#include <span>

#include "core/triggers.h"

namespace ftgcs::core {

enum class ModeReason : std::uint8_t {
  kFastTrigger,
  kSlowTrigger,
  kMaxCatchUp,
  kDefaultSlow,
};

struct ModeDecision {
  int gamma = 0;
  ModeReason reason = ModeReason::kDefaultSlow;
};

class InterclusterController {
 public:
  InterclusterController(double kappa, double slack, double c_global,
                         bool use_global_module);

  /// Decides γ_v from the node's own logical clock value, its estimates of
  /// adjacent cluster clocks, their edge weights (paper footnote 1: κ_e =
  /// w_e·κ and δ_e = w_e·δ; all 1 on a uniform network), and (if enabled)
  /// its max-estimate M_v. `weights` is parallel to `estimates`; the
  /// catch-up rule keeps using the base δ.
  ModeDecision decide(double self, std::span<const double> estimates,
                      std::span<const double> weights,
                      double max_estimate) const;

  double kappa() const { return kappa_; }
  double slack() const { return slack_; }

 private:
  double kappa_;
  double slack_;
  double c_global_;
  bool use_global_module_;
};

}  // namespace ftgcs::core
