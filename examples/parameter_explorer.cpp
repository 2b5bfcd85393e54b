// Parameter explorer: derive and print every constant of the construction
// for user-supplied model inputs, in both presets, with feasibility checks
// and the bounds the theorems predict.
//
//   ./parameter_explorer [rho] [d] [U] [f]
//
// A malformed argument (a non-number, rho too large for the practical
// preset, d <= 0, U outside [0, d], f < 0) prints a message and exits 2.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "core/params.h"
#include "exp/scenario.h"
#include "metrics/table.h"

namespace {

void show(const char* name, const ftgcs::core::Params& p, int diameter) {
  std::printf("---- %s ----\n%s", name, p.summary().c_str());
  std::printf("feasibility:\n%s", p.feasibility_report().c_str());
  if (p.feasible()) {
    std::printf("predictions:\n");
    std::printf("  intra-cluster skew bound     : %.6g\n",
                p.intra_cluster_skew_bound());
    std::printf("  global skew bound (D=%d)      : %.6g\n", diameter,
                p.predicted_global_skew(diameter));
    std::printf("  local cluster skew (D=%d)     : %.6g\n", diameter,
                p.predicted_local_skew(p.predicted_global_skew(diameter)));
    std::printf("  fast-cluster rate >= %.8f\n",
                p.fast_cluster_rate_lower_bound());
    std::printf("  slow-cluster rate in [%.8f, %.8f]\n",
                p.slow_cluster_rate_lower_bound(),
                p.slow_cluster_rate_upper_bound());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftgcs;

  double rho = 1e-4;
  double d = 1.0;
  double U = 0.01;
  int f = 1;
  try {
    if (argc > 1) rho = exp::parse_real("rho", argv[1]);
    if (argc > 2) d = exp::parse_real("d", argv[2]);
    if (argc > 3) U = exp::parse_real("U", argv[3]);
    // k = 3f + 1 must fit in an int.
    if (argc > 4) {
      f = exp::parse_integer<int>("f", argv[4], 0, (INT_MAX - 1) / 3);
    }
    if (!(rho > 0.0) || core::Params::practical_phi(rho) == 0.0) {
      throw std::invalid_argument(
          "rho must be positive and small enough for the practical preset");
    }
    if (!(d > 0.0)) throw std::invalid_argument("d must be positive");
    if (!(U >= 0.0 && U <= d)) {
      throw std::invalid_argument("U must lie in [0, d]");
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr,
                 "parameter_explorer: %s\nusage: parameter_explorer [rho] "
                 "[d] [U] [f]\n",
                 error.what());
    return 2;
  }
  const int diameter = 16;

  std::printf("model inputs: rho=%g d=%g U=%g f=%d\n\n", rho, d, U, f);

  show("practical preset", core::Params::practical(rho, d, U, f), diameter);
  // paper_strict needs very small rho; derive at a feasible value so the
  // table is always meaningful.
  const double strict_rho = std::min(rho, 1e-6);
  std::printf("(paper_strict shown at rho=%g — eq. (5) requires "
              "rho < eps/132 ~ 1.8e-6)\n\n",
              strict_rho);
  show("paper_strict preset (eq. 5)",
       core::Params::paper_strict(strict_rho, d, U, f), diameter);

  // Inequality (1): reliability table.
  std::printf("---- Inequality (1): P[cluster has > f faults] ----\n");
  metrics::Table table({"f", "k=3f+1", "p=0.001", "p=0.01", "p=0.05",
                        "bound(3ep)^(f+1) @0.01"});
  for (int fi = 0; fi <= 4; ++fi) {
    table.add_row(
        {metrics::Table::integer(fi), metrics::Table::integer(3 * fi + 1),
         metrics::Table::num(core::cluster_failure_probability(fi, 0.001), 3),
         metrics::Table::num(core::cluster_failure_probability(fi, 0.01), 3),
         metrics::Table::num(core::cluster_failure_probability(fi, 0.05), 3),
         metrics::Table::num(core::cluster_failure_bound(fi, 0.01), 3)});
  }
  table.print(std::cout);
  return 0;
}
