// Parameter derivation for the FT-GCS construction.
//
// Inputs are the model constants of the paper: hardware drift bound ρ,
// maximum message delay d, delay uncertainty U, and per-cluster fault
// budget f. From these we derive every constant used by Algorithms 1 and 2
// exactly as in the paper:
//
//   ϑ_g   = (1+ρ)(1+µ)                                 (eq. 6 context)
//   α, β of eq. (11) — kept as reference values
//   E     = fixed point of the Claim B.15 general recurrence (eq. 12 with
//           ζ = 1, ϑ = ϑ_g): the steady-state pulse diameter
//   τ1    = ζ_max·ϑ_g·E                                 (eq. 4)
//   τ2    = ζ_max·ϑ_g·(E+d)
//   τ3    = c1·ζ_max·ϑ_g·(E+U),  c1 = 1/ϕ,  ζ_max = (1+ϕ)(1+µ)
//   δ     = (k+5)·E,  κ = 3δ                             (Lemma 4.8)
//
// REPRODUCTION NOTE — eq. (10)/(5) vs eq. (4). The paper states two window
// families: eq. (4) scales every phase by ζ_max = (1+ϕ)(1+µ); the final
// parameter choice (5)/(10) omits that factor. During phases 1–2 a logical
// clock runs at rate (1+ϕ)(1+µγ)h ≥ 1+ϕ, so an eq. (10) window of logical
// length ϑ_g(E+d) lasts only ≈ (E+d)·ϑ_g/(1+ϕ) of real time — for
// non-vanishing ϕ this is SHORTER than the worst-case pulse spread plus
// delay, and round-r pulses arrive after the collection window closes
// (we verified this empirically: with eq. (10) windows and ϕ ≈ 0.28 every
// pulse missed its round). The omission is sound only in the asymptotic
// regime ϕ, µ = O(ρ) of Theorem 1.1. This implementation uses eq. (4)
// verbatim, with E the fixed point of the matching recurrence (12).
//
// The unanimous-cluster recurrences of Claim B.15 (eq. 12) also give the
// unanimity horizon k of Lemma 3.6 and the predicted steady-state pulse
// diameters e_g^∞, e_f^∞, e_s^∞.
//
// Two presets:
//  * paper_strict — eq. (5) verbatim: c2 = 32, ε = 1/4096,
//    c1 = ((1/2)−ε)/(1+c2)·(1/ρ), ϕ = 1/c1, µ = c2·ρ. Feasible only for
//    small ρ; constants are large, exactly as in the paper.
//  * practical — same structure with µ = c2·ρ but ϕ chosen to hit a target
//    contraction α ≈ 0.75, which keeps E = O(ρd+U) with single-digit
//    constants so that the GCS dynamics are observable in short runs.
#pragma once

#include <string>

namespace ftgcs::core {

/// One affine round recurrence e(r+1) = α·e(r) + β with fixed point E.
struct RoundRecurrence {
  double alpha = 0.0;
  double beta = 0.0;

  bool contracting() const { return alpha < 1.0; }
  double fixed_point() const { return beta / (1.0 - alpha); }
  double iterate(double e) const { return alpha * e + beta; }
};

struct Params {
  // ---- model inputs -----------------------------------------------------
  double rho = 0.0;  ///< hardware drift bound: h ∈ [1, 1+ρ]
  double d = 0.0;    ///< max message delay
  double U = 0.0;    ///< delay uncertainty
  int f = 0;         ///< per-cluster Byzantine budget
  int k = 1;         ///< cluster size, k ≥ 3f+1

  // ---- chosen constants ---------------------------------------------------
  double mu = 0.0;   ///< logical-clock speedup in fast mode (µ = c2·ρ)
  double phi = 0.0;  ///< amortization envelope (δ_v scaled by ϕ)
  double c1 = 0.0;   ///< phase-3 stretch, ϕ = 1/c1
  double c2 = 0.0;   ///< µ/ρ
  double eps = 0.0;  ///< ε of eq. (5) (paper_strict only; 0 otherwise)

  // ---- derived: cluster algorithm ----------------------------------------
  double theta_g = 0.0;    ///< (1+ρ)(1+µ) — general nominal rate bound
  double theta_max = 0.0;  ///< (1 + 2ϕ/(1−ϕ))(1+µ)(1+ρ) — eq. (6)
  double alpha = 0.0;      ///< eq. (11)
  double beta = 0.0;       ///< eq. (11)
  double E = 0.0;          ///< fixed point β/(1−α)
  double tau1 = 0.0, tau2 = 0.0, tau3 = 0.0;  ///< eq. (10)
  double T = 0.0;          ///< τ1+τ2+τ3

  // ---- derived: unanimous-cluster analysis (Claim B.15) ------------------
  RoundRecurrence rec_general;  ///< (12) with ζ=1, ϑ=ϑ_g
  RoundRecurrence rec_fast;     ///< (12) with ζ=(1+ϕ)(1+µ), ϑ=1+ρ
  RoundRecurrence rec_slow;     ///< (12) with ζ=1+ϕ, ϑ=1+ρ
  int k_unanimity = 0;          ///< rounds of unanimity for Lemma 3.6
  bool unanimity_analysis_valid = false;

  // ---- derived: intercluster algorithm ------------------------------------
  double delta_trig = 0.0;  ///< trigger slack δ = (k+5)E (Lemma 4.8)
  double kappa = 0.0;       ///< κ = 3δ
  double c_global = 6.0;    ///< c of Theorem C.3 (catch-up margin c·δ)

  // ---- presets ------------------------------------------------------------
  static Params paper_strict(double rho, double d, double U, int f);
  static Params practical(double rho, double d, double U, int f);
  /// The ϕ the practical preset picks for drift ρ, or 0 when ρ is too
  /// large for the construction (practical() then fails its precondition).
  static double practical_phi(double rho);
  /// Explicit µ and ϕ (ablations / sensitivity sweeps); everything else
  /// derived as in the presets.
  static Params custom(double rho, double d, double U, int f, double mu,
                       double phi);

  /// Oversized clusters: Theorem 1.1 allows any k ≥ 3f+1 (more spare
  /// correct members, same trim budget f). Returns a copy with the given
  /// cluster size. Requires cluster_size >= 3f+1.
  Params with_cluster_size(int cluster_size) const;

  // ---- feasibility ---------------------------------------------------------
  /// All conditions required by the analysis: α < 1 (fixed point exists),
  /// 0 < ϕ < 1, δ < 2κ (Lemma 4.5 trigger exclusivity), µ̄ > ρ̄ (GCS axiom
  /// A4 via Proposition 4.11), k ≥ 3f+1.
  bool feasible() const;
  std::string feasibility_report() const;

  // ---- quantities the theorems predict -------------------------------------
  /// Corollary 3.2: |L_v − L_w| < 2ϑ_g·E within a cluster.
  double intra_cluster_skew_bound() const { return 2.0 * theta_g * E; }

  /// Proposition 4.11: effective GCS drift ρ̄ = (1+ϕ)(1+µ/4) − 1.
  double rho_bar() const { return (1.0 + phi) * (1.0 + 0.25 * mu) - 1.0; }
  /// Proposition 4.11: effective GCS boost µ̄ = (1+ϕ)(1+7µ/8) − 1.
  double mu_bar() const { return (1.0 + phi) * (1.0 + 0.875 * mu) - 1.0; }
  /// GCS base b = µ̄/ρ̄ (> 1 required by axiom A4).
  double gcs_base() const { return mu_bar() / rho_bar(); }

  /// Theorem 4.10: local cluster skew ≤ κ·⌈log_b(S/κ)⌉ given global skew S
  /// (we add one level for the s = 1 slack, as in the GCS analysis).
  double predicted_local_skew(double global_skew) const;

  /// Theorem C.3 shape: global skew = O(δ·D); returned with constant
  /// c_global so experiments can compare shapes.
  double predicted_global_skew(int diameter) const {
    return c_global * delta_trig * diameter;
  }

  /// Amortized-rate bounds of Lemma 3.6 for unanimously fast/slow clusters.
  double fast_cluster_rate_lower_bound() const {
    return (1.0 + phi) * (1.0 + 0.875 * mu);
  }
  double slow_cluster_rate_lower_bound() const {
    return (1.0 + phi) * (1.0 - 0.125 * mu);
  }
  double slow_cluster_rate_upper_bound() const {
    return (1.0 + phi) * (1.0 + 0.125 * mu);
  }

  /// Per-node logical rate envelope (Lemma B.4): [1, ϑ_max].
  double max_logical_rate() const { return theta_max; }

  std::string summary() const;

 private:
  /// Fills every derived field from (rho, d, U, f, k, mu, phi).
  void derive();
};

/// Inequality (1): probability that a cluster of 3f+1 nodes with i.i.d.
/// failure probability p has more than f faulty members, and the paper's
/// closed-form bound (3ep)^(f+1).
double cluster_failure_probability(int f, double p);
double cluster_failure_bound(int f, double p);

}  // namespace ftgcs::core
