#include "trace/monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/assert.h"

namespace ftgcs::trace {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

InvariantMonitor::InvariantMonitor(exp::TopologyGraph graph,
                                   MonitorBounds bounds)
    : graph_(std::move(graph)), bounds_(bounds) {}

void InvariantMonitor::check(const char* invariant, double value,
                             double bound, const MonitorCursor& cursor) {
  if (bound <= 0.0 || value <= bound) return;
  ++stats_.violations;
  if (!stats_.has_violation) {
    stats_.has_violation = true;
    stats_.first = Violation{invariant, value, bound, cursor};
  }
}

void InvariantMonitor::observe(const core::SystemColumns& columns,
                               const MonitorCursor& cursor) {
  const int n = columns.num_nodes();
  FTGCS_EXPECTS(n == graph_.num_nodes());
  ++stats_.probes;

  // Pass 1 — per-cluster and global extremes over correct (non-crashed)
  // nodes. columns.correct is 0 for Byzantine ids AND for crash-stopped
  // nodes, so crashed clocks never enter an aggregate.
  const auto clusters = static_cast<std::size_t>(graph_.num_clusters());
  cluster_lo_.assign(clusters, kInf);
  cluster_hi_.assign(clusters, -kInf);
  double global_lo = kInf;
  double global_hi = -kInf;
  for (int id = 0; id < n; ++id) {
    const auto i = static_cast<std::size_t>(id);
    if (!columns.correct[i]) continue;
    const double logical = columns.logical[i];
    const auto c = static_cast<std::size_t>(graph_.cluster_of(id));
    cluster_lo_[c] = std::min(cluster_lo_[c], logical);
    cluster_hi_[c] = std::max(cluster_hi_[c], logical);
    global_lo = std::min(global_lo, logical);
    global_hi = std::max(global_hi, logical);
  }
  const double global_skew =
      global_hi >= global_lo ? global_hi - global_lo : 0.0;
  double intra = 0.0;
  for (std::size_t c = 0; c < clusters; ++c) {
    if (cluster_hi_[c] >= cluster_lo_[c]) {
      intra = std::max(intra, cluster_hi_[c] - cluster_lo_[c]);
    }
  }

  // Pass 2 — node-local skew edge by edge over the augmented adjacency
  // (each undirected edge visited once via v < w). Deliberately NOT the
  // cluster-extreme shortcut measure_skews uses; equality of the two is a
  // tested property of the clique + bipartite structure.
  double local = 0.0;
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!columns.correct[vi]) continue;
    const double lv = columns.logical[vi];
    for (int w : graph_.neighbors(v)) {
      if (w <= v) continue;
      const auto wi = static_cast<std::size_t>(w);
      if (!columns.correct[wi]) continue;
      local = std::max(local, std::abs(lv - columns.logical[wi]));
    }
  }

  stats_.max_local_skew = std::max(stats_.max_local_skew, local);
  stats_.max_global_skew = std::max(stats_.max_global_skew, global_skew);
  stats_.max_intra_cluster = std::max(stats_.max_intra_cluster, intra);

  check("local_skew", local, bounds_.local_skew, cursor);
  check("intra_cluster", intra, bounds_.intra_cluster, cursor);
  check("global_skew", global_skew, bounds_.global_skew, cursor);
}

void InvariantMonitor::observe_m_lag(double max_lag,
                                     const MonitorCursor& cursor) {
  stats_.max_m_lag = std::max(stats_.max_m_lag, max_lag);
  check("m_lag", max_lag, bounds_.m_lag, cursor);
}

MonitorReport InvariantMonitor::report() const {
  return {stats_, local_margin(), global_margin(), intra_margin()};
}

double InvariantMonitor::local_margin() const {
  return bounds_.local_skew > 0.0 ? bounds_.local_skew - stats_.max_local_skew
                                  : kInf;
}
double InvariantMonitor::global_margin() const {
  return bounds_.global_skew > 0.0
             ? bounds_.global_skew - stats_.max_global_skew
             : kInf;
}
double InvariantMonitor::intra_margin() const {
  return bounds_.intra_cluster > 0.0
             ? bounds_.intra_cluster - stats_.max_intra_cluster
             : kInf;
}
double InvariantMonitor::m_lag_margin() const {
  return bounds_.m_lag > 0.0 ? bounds_.m_lag - stats_.max_m_lag : kInf;
}

}  // namespace ftgcs::trace
