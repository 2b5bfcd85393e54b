// Always-on online invariant monitors.
//
// InvariantMonitor keeps running estimates of the quantities the paper
// bounds — node-local skew (per augmented edge), node-global skew,
// intra-cluster skew, and the max-estimate lag M_v − L_v — and checks each
// probe's value against the predicted bound (κ-family local bound,
// c·δ·D global bound, 2ϑ_g·E intra-cluster bound, Lemma C.2 lag
// envelope). The FIRST violating probe is flagged with a replayable
// cursor: simulation time, engine event count, and the byte offset into
// the trace file at which replay would resume (when tracing is on).
//
// The skew scan is an INDEPENDENT reimplementation of the ground truth:
// it takes the edge-by-edge maximum over the node-level adjacency of the
// resolved exp::TopologyGraph rather than metrics::measure_skews'
// cluster-extreme reduction. Over the augmented graph (intra-cluster
// cliques + complete bipartite bundles) the two are provably equal, which
// tests/test_trace_monitor.cpp checks at every probe — a genuine
// cross-check, not a tautology.
//
// Cost: one O(V + E_aug) scan per probe, no allocation after the first
// (scratch vectors are reused) — O(1) amortized per simulated event at
// the default probe cadence, which is what lets the monitors default ON.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/node_table.h"
#include "exp/topology_graph.h"
#include "sim/time_types.h"
#include "support/stat_table.h"

namespace ftgcs::trace {

/// Predicted bounds the monitors check against; a non-positive entry
/// disables that invariant (e.g. m_lag when the global module is off).
struct MonitorBounds {
  double local_skew = 0.0;     ///< core::Params::predicted_local_skew(S)
  double global_skew = 0.0;    ///< core::Params::predicted_global_skew(D)
  double intra_cluster = 0.0;  ///< core::Params::intra_cluster_skew_bound()
  double m_lag = 0.0;          ///< Lemma C.2 envelope for M_v − L_v
};

/// A replayable position in the run: where a violation (or probe) sits in
/// simulated time, in the engine's event stream, and in the trace file.
struct MonitorCursor {
  sim::Time at = 0.0;
  std::uint64_t events = 0;        ///< engine events executed so far
  std::uint64_t trace_records = 0; ///< records committed to the trace
  std::uint64_t trace_offset = 0;  ///< byte offset for replay; 0 = no trace
};

struct Violation {
  const char* invariant = "";  ///< "local_skew" | "global_skew" |
                               ///< "intra_cluster" | "m_lag"
  double value = 0.0;
  double bound = 0.0;
  MonitorCursor cursor;
  std::size_t task = 0;  ///< sweep task index (stamped by exp::SweepRunner)
};

struct MonitorReport;

class InvariantMonitor {
 public:
  struct Stats {
    std::uint64_t probes = 0;
    std::uint64_t violations = 0;  ///< probe × invariant exceedances
    double max_local_skew = 0.0;
    double max_global_skew = 0.0;
    double max_intra_cluster = 0.0;
    double max_m_lag = 0.0;
    bool has_violation = false;
    Violation first;  ///< valid iff has_violation

    /// Field table (support/stat_table.h): the `--timing` footer's
    /// monitors line, printed when the probe count is nonzero. The first
    /// violation is a group keyed on has_violation, printed on a line of
    /// its own.
    static constexpr auto fields() {
      using enum support::Agg;
      using enum support::Plane;
      using S = Stats;
      return std::array{
          field<&S::probes>("probes", kSum, kDeterministic, "monitors"),
          field<&S::violations>("violations", kSum, kDeterministic,
                                "monitors"),
          field<&S::max_local_skew>("max_local", kMax, kDeterministic,
                                    "monitors", "%.4g"),
          field<&S::max_global_skew>("max_global", kMax, kDeterministic,
                                     "monitors", "%.4g"),
          field<&S::max_intra_cluster>("max_intra", kMax, kDeterministic,
                                       "monitors", "%.4g"),
          field<&S::max_m_lag>("max_m_lag", kMax, kDeterministic, nullptr),
          field<&S::has_violation>("has_violation", kFirst, kDeterministic,
                                   nullptr),
          field<&S::first>("first_violation", kFirst, kDeterministic,
                           nullptr)};
    }
  };

  /// `graph` borrows the run's topology, which must outlive the monitor.
  InvariantMonitor(exp::TopologyGraph graph, MonitorBounds bounds);

  /// One probe: scans the columnar snapshot (crashed nodes carry
  /// columns.correct == 0 and are excluded from every aggregate, exactly
  /// as the ground-truth measurement excludes them) and checks the skew
  /// bounds against this probe's values.
  void observe(const core::SystemColumns& columns,
               const MonitorCursor& cursor);

  /// Max-estimate lag max_v (M_v(t) − L_v(t)) at the same probe, fed
  /// separately because M_v is only defined with the global module on.
  void observe_m_lag(double max_lag, const MonitorCursor& cursor);

  const Stats& stats() const { return stats_; }
  const MonitorBounds& bounds() const { return bounds_; }
  /// The run's summary: stats plus the local/global/intra margins.
  MonitorReport report() const;

  /// bound − running max; how much headroom survived the run. Meaningless
  /// (returns +inf) when the invariant is disabled.
  double local_margin() const;
  double global_margin() const;
  double intra_margin() const;
  double m_lag_margin() const;

 private:
  void check(const char* invariant, double value, double bound,
             const MonitorCursor& cursor);

  exp::TopologyGraph graph_;
  MonitorBounds bounds_;
  Stats stats_;
  std::vector<double> cluster_lo_;  ///< probe scratch, reused
  std::vector<double> cluster_hi_;
};

/// One run's monitor summary. A run without monitors keeps the defaults:
/// zero probes and absent (+inf) margins.
struct MonitorReport {
  InvariantMonitor::Stats stats;
  double local_margin = std::numeric_limits<double>::infinity();
  double global_margin = std::numeric_limits<double>::infinity();
  double intra_margin = std::numeric_limits<double>::infinity();

  /// The margins' rows follow Stats' maxima on the monitors line; an
  /// absent margin does not print.
  static constexpr auto fields() {
    using enum support::Agg;
    using enum support::Plane;
    using S = MonitorReport;
    return std::array{
        field<&S::local_margin>("local_margin", kMin, kDeterministic,
                                "monitors", "%.4g"),
        field<&S::global_margin>("global_margin", kMin, kDeterministic,
                                 "monitors", "%.4g"),
        field<&S::intra_margin>("intra_margin", kMin, kDeterministic,
                                "monitors", "%.4g")};
  }
};

}  // namespace ftgcs::trace
