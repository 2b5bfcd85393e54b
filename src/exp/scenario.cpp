#include "exp/scenario.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "support/assert.h"

namespace ftgcs::exp {

// ---- TopologySpec -----------------------------------------------------------

net::Graph TopologySpec::build() const {
  switch (kind) {
    case TopologyKind::kLine:
      return net::Graph::line(a);
    case TopologyKind::kRing:
      return net::Graph::ring(a);
    case TopologyKind::kStar:
      return net::Graph::star(a);
    case TopologyKind::kClique:
      return net::Graph::clique(a);
    case TopologyKind::kGrid:
      return net::Graph::grid(a, b);
    case TopologyKind::kTorus:
      return net::Graph::torus(a, b);
    case TopologyKind::kTree:
      return net::Graph::balanced_tree(a, b);
    case TopologyKind::kHypercube:
      return net::Graph::hypercube(a);
    case TopologyKind::kGnp:
      return net::Graph::gnp_connected(a, p, seed);
  }
  FTGCS_ASSERT(false);
  return net::Graph::line(1);
}

std::string TopologySpec::describe() const {
  char buf[64];
  switch (kind) {
    case TopologyKind::kGrid:
    case TopologyKind::kTorus:
      std::snprintf(buf, sizeof buf, "%s(%dx%d)", topology_kind_name(kind), a,
                    b);
      break;
    case TopologyKind::kTree:
      std::snprintf(buf, sizeof buf, "tree(b=%d,depth=%d)", a, b);
      break;
    case TopologyKind::kGnp:
      std::snprintf(buf, sizeof buf, "gnp(n=%d,p=%g)", a, p);
      break;
    default:
      std::snprintf(buf, sizeof buf, "%s(%d)", topology_kind_name(kind), a);
      break;
  }
  return buf;
}

void TopologySpec::set_diameter(int diameter) {
  FTGCS_EXPECTS(diameter >= 1);
  switch (kind) {
    case TopologyKind::kLine:
      a = diameter + 1;
      return;
    case TopologyKind::kRing:
      a = 2 * diameter;
      return;
    case TopologyKind::kGrid: {
      // Diameter of grid(w, h) is (w−1)+(h−1); split as evenly as possible.
      a = diameter / 2 + 1;
      b = diameter - (a - 1) + 1;
      return;
    }
    default:
      throw std::invalid_argument(
          "axis 'diameter' is only supported for line/ring/grid topologies");
  }
}

void TopologySpec::set_clusters(int n) {
  FTGCS_EXPECTS(n >= 1);
  switch (kind) {
    case TopologyKind::kLine:
    case TopologyKind::kRing:
    case TopologyKind::kStar:
    case TopologyKind::kClique:
    case TopologyKind::kGnp:
      a = n;
      return;
    case TopologyKind::kGrid:
    case TopologyKind::kTorus: {
      // Exact factorization w×h = n with w the largest divisor ≤ √n, so a
      // "clusters" axis row simulates exactly the labeled count (the
      // large-grid family's values 1000/5000/10000 give 25×40, 50×100,
      // 100×100). Prime n degenerates to 1×n — truthful, if elongated.
      a = static_cast<int>(std::sqrt(static_cast<double>(n)));
      while (a > 1 && n % a != 0) --a;
      if (a < 1) a = 1;
      b = n / a;
      return;
    }
    default:
      throw std::invalid_argument(
          "axis 'clusters' is only supported for 1-parameter and square "
          "topologies");
  }
}

// ---- ParamsSpec -------------------------------------------------------------

core::Params ParamsSpec::build() const {
  // The model and preset preconditions of core::Params (and U < d, which
  // the global-skew module's spacing d - U needs), checked here so that an
  // infeasible axis value is a typed error instead of an abort.
  const auto reject = [this](const std::string& why) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "params rho=%g d=%g U=%g: ", rho, d, U);
    throw std::invalid_argument(buf + why);
  };
  if (!(rho > 0.0)) reject("expected rho > 0");
  if (!(d > 0.0 && U >= 0.0 && U < d)) reject("expected 0 <= U < d");
  if (preset == Preset::kPractical && core::Params::practical_phi(rho) <= 0.0) {
    reject("rho too large for the practical preset (no phi contracts)");
  }
  if (preset == Preset::kCustom && !(mu > 0.0 && phi > 0.0 && phi < 1.0)) {
    reject("the custom preset expects mu > 0 and 0 < phi < 1");
  }
  if (cluster_size > 0 && cluster_size < 3 * f + 1) {
    reject("cluster_size " + std::to_string(cluster_size) +
           " is below 3f+1 = " + std::to_string(3 * f + 1));
  }
  core::Params result;
  switch (preset) {
    case Preset::kPractical:
      result = core::Params::practical(rho, d, U, f);
      break;
    case Preset::kPaperStrict:
      result = core::Params::paper_strict(rho, d, U, f);
      break;
    case Preset::kCustom:
      result = core::Params::custom(rho, d, U, f, mu, phi);
      break;
  }
  if (cluster_size > 0) result = result.with_cluster_size(cluster_size);
  return result;
}

// ---- RampSpec / HorizonSpec -------------------------------------------------

int RampSpec::resolve(const core::Params& params, int diameter) const {
  if (gap_band_factor > 0.0) {
    const double band = params.predicted_global_skew(diameter);
    return static_cast<int>(gap_band_factor * band / (diameter * params.T)) +
           1;
  }
  if (gap_kappa > 0.0) {
    return static_cast<int>(gap_kappa * params.kappa / params.T) + 1;
  }
  return gap_rounds;
}

double HorizonSpec::resolve(const core::Params& params, int diameter,
                            double initial_global) const {
  double rounds = base_rounds + per_diameter_rounds * diameter;
  if (drain_factor > 0.0 && params.mu > 0.0) {
    rounds += drain_factor * initial_global / (params.mu * params.T);
  }
  return rounds;
}

// ---- ScenarioSpec -----------------------------------------------------------

std::size_t ScenarioSpec::num_points() const {
  std::size_t points = 1;
  for (const auto& axis : axes) points *= axis.values.size();
  return points;
}

void apply_axis(ScenarioSpec& spec, const std::string& name, double value) {
  const auto reject = [&](const std::string& expected) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", value);
    throw std::invalid_argument("axis '" + name + "' value " + buf +
                                ": expected " + expected);
  };
  const auto integer = [&](int lo, int hi, const char* what) {
    if (!(std::isfinite(value) && value == std::floor(value) &&
          value >= lo && value <= hi)) {
      reject(std::string(what) + " in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]");
    }
    return static_cast<int>(value);
  };
  const auto count = [&](int lo) {
    return integer(lo, std::numeric_limits<int>::max(), "an integer");
  };
  const auto real = [&](bool positive) {
    if (!(std::isfinite(value) && (positive ? value > 0.0 : value >= 0.0))) {
      reject(positive ? "a finite value > 0" : "a finite value >= 0");
    }
    return value;
  };
  if (name == "diameter") {
    spec.topology.set_diameter(count(1));
  } else if (name == "clusters") {
    spec.topology.set_clusters(count(1));
  } else if (name == "gap_rounds") {
    spec.ramp = {};
    spec.ramp.gap_rounds = count(0);
  } else if (name == "gap_kappa") {
    spec.ramp = {};
    spec.ramp.gap_kappa = real(false);
  } else if (name == "f") {
    spec.params.f = count(0);
  } else if (name == "cluster_size") {
    spec.params.cluster_size = count(0);
  } else if (name == "faults_per_cluster") {
    spec.faults.count = count(-1);  // -1 = f
  } else if (name == "strategy") {
    spec.faults.strategy = static_cast<byz::StrategyKind>(
        integer(0, static_cast<int>(byz::StrategyKind::kDelayJitter),
                "a strategy name or an ordinal"));
  } else if (name == "attacked") {
    spec.faults.enabled = integer(0, 1, "a flag") != 0;
  } else if (name == "rho") {
    spec.params.rho = real(false);
  } else if (name == "d") {
    spec.params.d = real(false);
  } else if (name == "U") {
    spec.params.U = real(false);
  } else if (name == "mu") {
    spec.params.mu = real(false);
  } else if (name == "phi") {
    spec.params.phi = real(false);
  } else if (name == "horizon_rounds") {
    spec.horizon = {};
    spec.horizon.base_rounds = real(true);
  } else if (name == "flip_rounds") {
    spec.drift.flip_rounds = real(false);
  } else if (name == "probability") {
    if (!(value >= 0.0 && value <= 1.0)) reject("a probability in [0, 1]");
    spec.faults.probability = value;
  } else if (name == "shards") {
    spec.shards = count(1);
  } else if (name == "fault_mode") {
    spec.faults.mode = static_cast<FaultMode>(
        integer(0, static_cast<int>(FaultMode::kIid), "an ordinal"));
    // A scenario registered without faults carries no strategy strength;
    // the per-strategy default keeps the attack meaningful.
    if (spec.faults.param_abs == 0.0 && spec.faults.param_times_E == 0.0) {
      spec.faults.default_param_for_strategy = true;
    }
  } else {
    throw std::invalid_argument("unknown sweep axis '" + name + "'");
  }
}

SweepAxis parse_axis(const std::string& text) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
    throw std::invalid_argument("--axis expects name=v1,v2,... got '" +
                                text + "'");
  }
  const auto strategy_ordinal = [](const std::string& token) {
    for (int s = 0; s <= static_cast<int>(byz::StrategyKind::kDelayJitter);
         ++s) {
      if (token == byz::strategy_name(static_cast<byz::StrategyKind>(s))) {
        return s;
      }
    }
    return -1;
  };
  SweepAxis axis;
  axis.name = text.substr(0, eq);
  std::istringstream list(text.substr(eq + 1));
  for (std::string token; std::getline(list, token, ',');) {
    if (token.empty()) continue;
    const int strategy = axis.name == "strategy" ? strategy_ordinal(token) : -1;
    if (strategy >= 0) {
      axis.values.push_back(AxisValue::named(strategy, token));
      continue;
    }
    char* parsed_end = nullptr;
    const double value = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end != token.c_str() + token.size()) {
      throw std::invalid_argument("--axis '" + axis.name + "': '" + token +
                                  "' is not a number");
    }
    axis.values.push_back(AxisValue::of(value));
  }
  if (axis.values.empty()) {
    throw std::invalid_argument("--axis '" + axis.name + "' has no values");
  }
  return axis;
}

void override_axis(ScenarioSpec& spec, SweepAxis axis) {
  for (auto& existing : spec.axes) {
    if (existing.name == axis.name) {
      existing = std::move(axis);
      return;
    }
  }
  spec.axes.push_back(std::move(axis));
}

template <class Int>
Int parse_integer(const std::string& flag, const std::string& token, Int lo,
                  Int hi) {
  Int value{};
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (token.empty() || ec != std::errc() || ptr != last || value < lo ||
      value > hi) {
    throw std::invalid_argument(flag + " expects an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" + token +
                                "'");
  }
  return value;
}

template int parse_integer<int>(const std::string&, const std::string&, int,
                                int);
template std::uint64_t parse_integer<std::uint64_t>(const std::string&,
                                                    const std::string&,
                                                    std::uint64_t,
                                                    std::uint64_t);

double parse_real(const std::string& flag, const std::string& token) {
  char* parsed_end = nullptr;
  const double value = std::strtod(token.c_str(), &parsed_end);
  if (token.empty() || parsed_end != token.c_str() + token.size() ||
      !std::isfinite(value)) {
    throw std::invalid_argument(flag + " expects a finite number, got '" +
                                token + "'");
  }
  return value;
}

std::string format_axis_value(const AxisValue& v) {
  if (!v.label.empty()) return v.label;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v.value);
  return buf;
}

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kLine: return "line";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kStar: return "star";
    case TopologyKind::kClique: return "clique";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kTree: return "tree";
    case TopologyKind::kHypercube: return "hypercube";
    case TopologyKind::kGnp: return "gnp";
  }
  return "?";
}

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFtGcs: return "ftgcs";
    case ProtocolKind::kGcsBaseline: return "gcs";
    case ProtocolKind::kSrikanthToueg: return "srikanth-toueg";
    case ProtocolKind::kTreeSync: return "tree-sync";
    case ProtocolKind::kClusterTree: return "cluster-tree";
  }
  return "?";
}

}  // namespace ftgcs::exp
