#include "core/params.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/assert.h"

namespace ftgcs::core {

namespace {

/// α of eq. (11), simplified: (6ϑ²+5ϑ−9)/(2(ϑ+1)) + (ϑ−1)/ϕ.
double alpha_of(double theta, double phi) {
  return (6.0 * theta * theta + 5.0 * theta - 9.0) / (2.0 * (theta + 1.0)) +
         (theta - 1.0) / phi;
}

/// β of eq. (11).
double beta_of(double theta, double phi, double d, double U) {
  return (3.0 * theta - 1.0 + (theta - 1.0) / phi) * U + (theta - 1.0) * d;
}

/// Claim B.15 / eq. (12): recurrence for executions whose nominal rates lie
/// in [ζ, ζ·ϑ], with round lengths chosen per eq. (4).
RoundRecurrence recurrence_of(double zeta, double theta, double zeta_max,
                              double theta_g, double c1, double d, double U) {
  const double gamma = (zeta_max / zeta) * (theta_g / theta) * (theta - 1.0);
  RoundRecurrence rec;
  if (gamma >= 1.0) {  // analysis degenerate; flagged by caller
    rec.alpha = std::numeric_limits<double>::infinity();
    rec.beta = std::numeric_limits<double>::infinity();
    return rec;
  }
  rec.alpha = (2.0 * theta * theta + 5.0 * theta - 5.0) /
                  (2.0 * (theta + 1.0) * (1.0 - gamma)) +
              gamma / (1.0 - gamma) * (1.0 + c1);
  rec.beta = gamma / (1.0 - gamma) * d +
             1.0 / (1.0 - gamma) * ((3.0 * theta - 1.0) + gamma * c1) * U;
  return rec;
}

}  // namespace

void Params::derive() {
  FTGCS_EXPECTS(rho > 0.0 && d > 0.0 && U >= 0.0 && U <= d);
  FTGCS_EXPECTS(f >= 0);
  FTGCS_EXPECTS(mu > 0.0 && phi > 0.0 && phi < 1.0);

  k = 3 * f + 1;
  c1 = 1.0 / phi;
  c2 = mu / rho;

  theta_g = (1.0 + rho) * (1.0 + mu);
  theta_max = (1.0 + 2.0 * phi / (1.0 - phi)) * (1.0 + mu) * (1.0 + rho);

  // Reference values of eq. (11) — the recurrence for the *unscaled*
  // windows of eq. (10). NOTE: eq. (10)/(5) omits the ζ_max = (1+ϕ)(1+µ)
  // factor that eq. (4) carries on every phase duration. That omission is
  // benign only when ϕ, µ = O(ρ) (the asymptotic regime of Theorem 1.1);
  // for any ϕ that is not vanishing, phases 1–2 are consumed at logical
  // rate (1+ϕ)(1+µγ)h and an eq. (10) window is too short by exactly that
  // factor — round-r pulses then arrive after the collection window ends.
  // We therefore use eq. (4) verbatim for the actual protocol windows
  // below, with E the fixed point of the matching Claim B.15 recurrence.
  alpha = alpha_of(theta_g, phi);
  beta = beta_of(theta_g, phi, d, U);

  // Unanimous-cluster analysis (Claim B.15). ζ_max = (1+ϕ)(1+µ); the
  // general execution has nominal rates in [1, ϑ_g]; unanimous fast/slow
  // executions have rates in [ζ, ζ(1+ρ)] with ζ = ζ_max or (1+ϕ).
  const double zeta_max = (1.0 + phi) * (1.0 + mu);
  const double theta_u = 1.0 + rho;
  rec_general = recurrence_of(1.0, theta_g, zeta_max, theta_g, c1, d, U);
  rec_fast = recurrence_of(zeta_max, theta_u, zeta_max, theta_g, c1, d, U);
  rec_slow = recurrence_of(1.0 + phi, theta_u, zeta_max, theta_g, c1, d, U);

  E = rec_general.contracting() ? rec_general.fixed_point() : 0.0;

  // Eq. (4): τ1 = ζ_max·ϑ_g·E, τ2 = ζ_max·ϑ_g·(E+d),
  //          τ3 = c1·ζ_max·ϑ_g·(E+U) with c1 = 1/ϕ.
  tau1 = zeta_max * theta_g * E;
  tau2 = zeta_max * theta_g * (E + d);
  tau3 = c1 * zeta_max * theta_g * (E + U);
  T = tau1 + tau2 + tau3;

  // Unanimity horizon k of Lemma 3.6: rounds of unanimity needed for the
  // pulse diameter to fall from 2·e_g^∞ to within 2·e_f^∞, iterating the
  // unanimous (fast — the slower-converging of the two) recurrence.
  unanimity_analysis_valid =
      rec_fast.contracting() && rec_slow.contracting();
  if (unanimity_analysis_valid) {
    const double start = rec_general.contracting()
                             ? 2.0 * rec_general.fixed_point()
                             : 2.0 * E;
    const double target_fast = 2.0 * rec_fast.fixed_point();
    const double target_slow = 2.0 * rec_slow.fixed_point();
    double e_fast = start;
    double e_slow = start;
    int rounds = 0;
    while ((e_fast > target_fast || e_slow > target_slow) && rounds < 64) {
      e_fast = rec_fast.iterate(e_fast);
      e_slow = rec_slow.iterate(e_slow);
      ++rounds;
    }
    k_unanimity = rounds;
  } else {
    k_unanimity = 8;  // conservative default when (12) is not contracting
  }

  delta_trig = (k_unanimity + 5.0) * E;
  kappa = 3.0 * delta_trig;
}

Params Params::paper_strict(double rho, double d, double U, int f) {
  Params p;
  p.rho = rho;
  p.d = d;
  p.U = U;
  p.f = f;
  p.eps = 1.0 / 4096.0;
  p.c2 = 32.0;
  p.mu = p.c2 * rho;
  // eq. (5): c1 = ((1/2) − ε) / (1 + c2) · 1/ρ, ϕ = 1/c1.
  const double c1 = (0.5 - p.eps) / (1.0 + p.c2) / rho;
  p.phi = 1.0 / c1;
  p.derive();
  return p;
}

double Params::practical_phi(double rho) {
  // Choose the smallest ϕ whose general-execution recurrence (Claim B.15
  // with ζ = 1, ϑ = ϑ_g) contracts with margin: α ≤ 0.8. Smaller ϕ keeps
  // the logical-rate envelope ϑ_max tame.
  const double alpha_target = 0.8;
  const double mu = 32.0 * rho;
  const double theta = (1.0 + rho) * (1.0 + mu);
  const double zeta_probe_base = 1.0 + mu;
  for (double phi = 0.01; phi <= 0.95; phi += 0.005) {
    const double zeta_max = (1.0 + phi) * zeta_probe_base;
    const double gamma = zeta_max * (theta - 1.0);
    if (gamma >= 1.0) continue;
    const double alpha12 =
        (2.0 * theta * theta + 5.0 * theta - 5.0) /
            (2.0 * (theta + 1.0) * (1.0 - gamma)) +
        gamma / (1.0 - gamma) * (1.0 + 1.0 / phi);
    if (alpha12 <= alpha_target) return phi;
  }
  return 0.0;
}

Params Params::practical(double rho, double d, double U, int f) {
  Params p;
  p.rho = rho;
  p.d = d;
  p.U = U;
  p.f = f;
  p.eps = 0.0;
  p.c2 = 32.0;
  p.mu = p.c2 * rho;
  p.phi = practical_phi(rho);
  FTGCS_EXPECTS(p.phi > 0.0);  // ρ too large for the construction
  p.derive();
  return p;
}

Params Params::custom(double rho, double d, double U, int f, double mu,
                      double phi) {
  Params p;
  p.rho = rho;
  p.d = d;
  p.U = U;
  p.f = f;
  p.mu = mu;
  p.phi = phi;
  p.derive();
  return p;
}

Params Params::with_cluster_size(int cluster_size) const {
  FTGCS_EXPECTS(cluster_size >= 3 * f + 1);
  Params p = *this;
  p.k = cluster_size;
  return p;
}

bool Params::feasible() const {
  return rec_general.contracting() && phi > 0.0 && phi < 1.0 && E > 0.0 &&
         delta_trig < 2.0 * kappa && mu_bar() > rho_bar() && k >= 3 * f + 1;
}

std::string Params::feasibility_report() const {
  std::ostringstream os;
  os << "alpha(12) < 1:      "
     << (rec_general.contracting() ? "ok" : "VIOLATED")
     << " (alpha_12 = " << rec_general.alpha << ", eq.11 alpha = " << alpha
     << ")\n";
  os << "0 < phi < 1:        "
     << (phi > 0.0 && phi < 1.0 ? "ok" : "VIOLATED") << " (phi = " << phi
     << ")\n";
  os << "delta < 2*kappa:    "
     << (delta_trig < 2.0 * kappa ? "ok" : "VIOLATED") << " (delta = "
     << delta_trig << ", kappa = " << kappa << ")\n";
  os << "mu_bar > rho_bar:   " << (mu_bar() > rho_bar() ? "ok" : "VIOLATED")
     << " (mu_bar = " << mu_bar() << ", rho_bar = " << rho_bar() << ")\n";
  os << "k >= 3f+1:          " << (k >= 3 * f + 1 ? "ok" : "VIOLATED")
     << " (k = " << k << ", f = " << f << ")\n";
  os << "unanimous analysis: "
     << (unanimity_analysis_valid ? "contracting"
                                  : "NOT CONTRACTING (k defaulted)")
     << "\n";
  return os.str();
}

double Params::predicted_local_skew(double global_skew) const {
  FTGCS_EXPECTS(global_skew >= 0.0);
  const double base = gcs_base();
  if (global_skew <= kappa || base <= 1.0) return kappa;
  const double levels = std::ceil(std::log(global_skew / kappa) /
                                  std::log(base));
  return kappa * (levels + 1.0);
}

std::string Params::summary() const {
  std::ostringstream os;
  os << "inputs:  rho=" << rho << " d=" << d << " U=" << U << " f=" << f
     << " k=" << k << "\n";
  os << "chosen:  mu=" << mu << " phi=" << phi << " c1=" << c1
     << " c2=" << c2 << "\n";
  os << "cluster: theta_g=" << theta_g << " theta_max=" << theta_max
     << " alpha12=" << rec_general.alpha << " beta12=" << rec_general.beta
     << " E=" << E << "\n";
  os << "rounds:  tau1=" << tau1 << " tau2=" << tau2 << " tau3=" << tau3
     << " T=" << T << "\n";
  os << "unanim:  k=" << k_unanimity
     << " e_inf_general=" << (rec_general.contracting()
                                  ? rec_general.fixed_point()
                                  : -1.0)
     << " e_inf_fast=" << (rec_fast.contracting() ? rec_fast.fixed_point()
                                                  : -1.0)
     << " e_inf_slow=" << (rec_slow.contracting() ? rec_slow.fixed_point()
                                                  : -1.0)
     << "\n";
  os << "gcs:     delta=" << delta_trig << " kappa=" << kappa
     << " rho_bar=" << rho_bar() << " mu_bar=" << mu_bar()
     << " base=" << gcs_base() << "\n";
  os << "bounds:  intra_cluster=" << intra_cluster_skew_bound()
     << " max_rate=" << max_logical_rate() << "\n";
  return os.str();
}

double cluster_failure_probability(int f, double p) {
  FTGCS_EXPECTS(f >= 0);
  FTGCS_EXPECTS(p >= 0.0 && p <= 1.0);
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;  // all 3f+1 members fail; 3f+1 > f
  const int n = 3 * f + 1;
  // P[X > f] for X ~ Binomial(n, p), computed stably via log terms.
  double total = 0.0;
  for (int i = f + 1; i <= n; ++i) {
    double log_term = std::lgamma(n + 1.0) - std::lgamma(i + 1.0) -
                      std::lgamma(n - i + 1.0);
    if (p > 0.0) log_term += i * std::log(p);
    if (p < 1.0) log_term += (n - i) * std::log1p(-p);
    if (p == 0.0 && i > 0) continue;
    total += std::exp(log_term);
  }
  return total;
}

double cluster_failure_bound(int f, double p) {
  return std::pow(3.0 * std::exp(1.0) * p, f + 1);
}

}  // namespace ftgcs::core
