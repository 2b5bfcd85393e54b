#include "exp/run.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cluster_tree_sync.h"
#include "baselines/srikanth_toueg.h"
#include "baselines/tree_sync.h"
#include "clocks/drift_model.h"
#include "core/ftgcs_system.h"
#include "core/triggers.h"
#include "exp/topology_graph.h"
#include "gcs/gcs_system.h"
#include "metrics/skew_tracker.h"
#include "net/augmented.h"
#include "net/channel.h"
#include "obs/phase_profiler.h"
#include "obs/pulse_diameters.h"
#include "obs/sampler.h"
#include "obs/settle_time.h"
#include "par/partition.h"
#include "par/sharded_system.h"
#include "support/assert.h"
#include "trace/collector.h"
#include "trace/monitor.h"

namespace ftgcs::exp {

namespace {

double strategy_default_param(byz::StrategyKind kind, const core::Params& p) {
  switch (kind) {
    case byz::StrategyKind::kSilent:
      return 0.0;
    case byz::StrategyKind::kClockLiar:
      return 100.0;
    default:
      return 3.0 * p.E;
  }
}

/// `members_per_cluster` is k for the augmented FT-GCS graph and 1 for the
/// plain-GCS baseline (one node per cluster-graph vertex).
std::unique_ptr<clocks::DriftModel> build_drift(const DriftSpec& spec,
                                                const core::Params& params,
                                                int num_clusters,
                                                int members_per_cluster,
                                                std::uint64_t seed) {
  const double T = params.T;
  switch (spec.kind) {
    case DriftKind::kSpreadConstant:
      return nullptr;  // system default: ConstantDrift spread over envelope
    case DriftKind::kRandomConstant:
      return std::make_unique<clocks::ConstantDrift>(params.rho, seed, false);
    case DriftKind::kRandomWalk:
      return std::make_unique<clocks::RandomWalkDrift>(
          params.rho, spec.step_rounds * T, spec.step_size, seed);
    case DriftKind::kSinusoidal:
      return std::make_unique<clocks::SinusoidalDrift>(
          params.rho, spec.period_rounds * T, spec.step_rounds * T, seed);
    case DriftKind::kSpatialSplit: {
      std::vector<int> group;
      group.reserve(static_cast<std::size_t>(num_clusters) *
                    members_per_cluster);
      for (int c = 0; c < num_clusters; ++c) {
        for (int i = 0; i < members_per_cluster; ++i) group.push_back(c);
      }
      const int boundary = std::max(
          1, static_cast<int>(spec.boundary_frac * num_clusters));
      return std::make_unique<clocks::SpatialSplitDrift>(
          params.rho, std::move(group), boundary, spec.flip_rounds * T);
    }
  }
  FTGCS_ASSERT(false);
  return nullptr;
}

byz::FaultPlan build_fault_plan(const FaultPlanSpec& spec,
                                const net::AugmentedTopology& topo,
                                const core::Params& params,
                                std::uint64_t run_seed) {
  if (!spec.active()) return byz::FaultPlan::none();
  const double param =
      spec.default_param_for_strategy
          ? strategy_default_param(spec.strategy, params)
          : spec.param_abs + spec.param_times_E * params.E;
  const std::uint64_t seed = spec.seed != 0 ? spec.seed : run_seed;
  const int count = spec.count >= 0 ? spec.count : params.f;
  switch (spec.mode) {
    case FaultMode::kNone:
      return byz::FaultPlan::none();
    case FaultMode::kUniform:
      return byz::FaultPlan::uniform(topo, count, spec.strategy, param, seed);
    case FaultMode::kInCluster:
      return byz::FaultPlan::in_cluster(topo, spec.cluster, count,
                                        spec.strategy, param, seed);
    case FaultMode::kIid:
      return byz::FaultPlan::iid(topo, spec.probability, spec.strategy, param,
                                 seed);
  }
  FTGCS_ASSERT(false);
  return byz::FaultPlan::none();
}

std::unique_ptr<net::DelayModel> build_delay(DelayKind kind,
                                             const core::Params& params) {
  switch (kind) {
    case DelayKind::kUniform:
      return std::make_unique<net::UniformDelay>(params.d, params.U);
    case DelayKind::kTwoPoint:
      return std::make_unique<net::TwoPointDelay>(params.d, params.U);
    case DelayKind::kDirectional:
      return std::make_unique<net::DirectionalDelay>(params.d, params.U);
  }
  FTGCS_ASSERT(false);
  return nullptr;
}

/// The shard system that owns node `id` (the system itself unsharded).
core::FtGcsSystem& owner_of(core::FtGcsSystem& s, int) { return s; }
core::FtGcsSystem& owner_of(par::ShardedFtGcsSystem& s, int id) {
  return s.owner(id);
}

/// One node's hooks under an externally driven γ regime (E3): Algorithm 2
/// decides first, with all its bookkeeping, then the regime overrides γ
/// for the round, in the engine's clock and in the table's γ column.
class GammaOverride final : public core::ClusterSyncHooks {
 public:
  GammaOverride(GammaRegime regime, core::FtGcsSystem& owner, int id)
      : regime_(regime),
        owner_(owner),
        id_(id),
        next_(owner.node(id).engine().hooks()) {}

  void on_round_start(int round) override {
    next_->on_round_start(round);
    const int gamma = regime_ == GammaRegime::kFast   ? 1
                      : regime_ == GammaRegime::kSlow ? 0
                                                      : (round + id_) % 2;
    owner_.node(id_).engine().clock().set_gamma(owner_.simulator().now(),
                                                gamma);
    owner_.node_table().set_gamma(id_, gamma);
  }
  void on_pulse_instant(int round, sim::Time now) override {
    next_->on_pulse_instant(round, now);
  }
  void on_correction(int round, double delta_corr, bool violated) override {
    next_->on_correction(round, delta_corr, violated);
  }

 private:
  GammaRegime regime_;
  core::FtGcsSystem& owner_;
  int id_;
  core::ClusterSyncHooks* next_;
};

/// Per-cluster clocks L_C = (L⁺ + L⁻)/2 over the correct members of a
/// probe's columns (Def. 3.3); NaN for a cluster without one.
void cluster_clocks(const core::SystemColumns& columns,
                    const net::AugmentedTopology& topo,
                    std::vector<double>& out) {
  out.assign(static_cast<std::size_t>(topo.num_clusters()),
             std::numeric_limits<double>::quiet_NaN());
  for (int c = 0; c < topo.num_clusters(); ++c) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (int member : topo.members(c)) {
      const auto i = static_cast<std::size_t>(member);
      if (!columns.correct[i]) continue;
      lo = std::min(lo, columns.logical[i]);
      hi = std::max(hi, columns.logical[i]);
    }
    if (hi >= lo) out[static_cast<std::size_t>(c)] = (lo + hi) / 2.0;
  }
}

/// The optional metric groups of an FT-GCS run, each computed only when
/// the scenario's table shows one of its metrics (ClaimProbes documents
/// each). ResolvedRun::metric_groups holds bit 1 << group.
enum MetricGroup : unsigned {
  kPulseDiameterMetrics,  ///< E3, E12
  kRateMetrics,           ///< E3
  kFaithfulnessMetrics,   ///< E10
  kDrainMetrics,          ///< E10
  kEdgeMetrics,           ///< E11
};

/// Each group's metric names, in the order ClaimProbes emits them: the one
/// list that both turns a group on and names its values.
const std::vector<const char*> kMetricGroupNames[] = {
    {"steady_diameter", "predicted_diameter", "spike_diameter", "spike_next",
     "contraction", "alpha", "in_contraction_bound"},
    {"rate_min_mu", "rate_max_mu", "rate_lo_mu", "rate_hi_mu",
     "in_rate_band"},
    {"trigger_samples", "faithfulness_misses"},
    {"in_drained"},
    {"edge_gap", "edge_excess", "expected_delay", "stabilization_delay",
     "delay_ratio"},
};

/// The metric_groups bit of optional metric `name`; 0 for any other name.
unsigned metric_group_bit(const std::string& name) {
  for (unsigned group = 0; group < std::size(kMetricGroupNames); ++group) {
    for (const char* metric : kMetricGroupNames[group]) {
      if (name == metric) return 1u << group;
    }
  }
  return 0;
}

/// Appends `values` under the names of `group`, in order.
void append_group(std::vector<std::pair<std::string, double>>& m,
                  MetricGroup group, std::initializer_list<double> values) {
  const std::vector<const char*>& names = kMetricGroupNames[group];
  FTGCS_ASSERT(names.size() == values.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    m.emplace_back(names[i], values.begin()[i]);
  }
}

/// The optional metric groups of one FT-GCS run: pulse diameters from a
/// PulseRecorder in front of every correct node's hooks, the rest from
/// each probe's columns. A group that is off costs nothing.
class ClaimProbes {
 public:
  ClaimProbes(const ResolvedRun& run, const net::AugmentedTopology& topo)
      : run_(run),
        topo_(topo),
        settle_(2.0 * run.params.kappa) {}

  bool on(MetricGroup group) const {
    return (run_.metric_groups >> group & 1u) != 0;
  }

  /// Puts a pulse recorder in front of every correct node's hooks. Call
  /// before system.start().
  template <class System>
  void install(System& system) {
    if (!on(kPulseDiameterMetrics)) return;
    std::vector<int> members(static_cast<std::size_t>(topo_.num_clusters()),
                             0);
    for (int id = 0; id < topo_.num_nodes(); ++id) {
      if (system.is_correct(id)) ++members[topo_.cluster_of(id)];
    }
    diameters_ = std::make_unique<obs::PulseDiameters>(std::move(members));
    recorders_.reserve(static_cast<std::size_t>(topo_.num_nodes()));
    for (int id = 0; id < topo_.num_nodes(); ++id) {
      if (!system.is_correct(id)) continue;
      core::ClusterSyncEngine& engine = system.node(id).engine();
      recorders_.emplace_back(*diameters_, topo_.cluster_of(id),
                              engine.hooks());
      engine.set_hooks(&recorders_.back());
    }
  }

  void probe(sim::Time t, const core::SystemColumns& columns) {
    if (on(kRateMetrics) && rate_t0_ < 0.0 &&
        t >= run_.steady_after_rounds * run_.params.T) {
      rate_t0_ = t;
      rate_l0_ = columns.logical;
    }
    if (on(kFaithfulnessMetrics)) count_faithfulness(columns);
    if (on(kEdgeMetrics) && run_.activate_rounds >= 0.0) {
      cluster_clocks(columns, topo_, clocks_);
      settle_.add(t, std::abs(clocks_.back() - clocks_.front()));
    }
  }

  /// Appends the metrics of every group that is on. `columns` is the
  /// last probe's (at time `t`).
  void emit(std::vector<std::pair<std::string, double>>& m, sim::Time t,
            const core::SystemColumns& columns, double s_init,
            double final_global) const {
    const core::Params& params = run_.params;
    if (on(kPulseDiameterMetrics)) emit_diameters(m);
    if (on(kRateMetrics)) emit_rates(m, t, columns);
    if (on(kFaithfulnessMetrics)) {
      append_group(m, kFaithfulnessMetrics,
                   {static_cast<double>(samples_),
                    static_cast<double>(misses_)});
    }
    if (on(kDrainMetrics)) {
      append_group(m, kDrainMetrics,
                   {final_global < 0.5 * s_init ? 1.0 : 0.0});
    }
    if (on(kEdgeMetrics)) {
      // The skew across the new edge at insertion, its excess over the 2κ
      // band, and the time to drain that at the catch-up rate (1+ϕ)µ.
      const double gap = (topo_.num_clusters() - 1) * run_.gap_rounds *
                         params.T;
      const double excess = std::max(0.0, gap - 2.0 * params.kappa);
      const double expected = excess / ((1.0 + params.phi) * params.mu);
      const auto settled = settle_.settled_at();
      const double delay =
          run_.activate_rounds >= 0.0 && settled
              ? *settled - run_.activate_rounds * params.T
              : -1.0;
      append_group(m, kEdgeMetrics,
                   {gap, excess, expected, delay,
                    expected > 0.0 && delay >= 0.0 ? delay / expected : 0.0});
    }
  }

 private:
  /// Definition 4.6's purpose: whenever a cluster satisfies the fast or
  /// slow condition on the true cluster clocks, every correct member
  /// should be in that mode. One sample per such cluster and probe; a miss
  /// when some member is not.
  void count_faithfulness(const core::SystemColumns& columns) {
    cluster_clocks(columns, topo_, clocks_);
    for (double clock : clocks_) {
      if (std::isnan(clock)) return;  // a cluster without correct members
    }
    for (int c = 0; c < topo_.num_clusters(); ++c) {
      neighbors_.clear();
      for (int b : topo_.cluster_neighbors(c)) {
        neighbors_.push_back(clocks_[static_cast<std::size_t>(b)]);
      }
      const core::TriggerView view{clocks_[static_cast<std::size_t>(c)],
                                   neighbors_};
      const bool fast = core::fast_condition(view, run_.params.kappa);
      const bool slow = core::slow_condition(view, run_.params.kappa);
      if (!fast && !slow) continue;
      ++samples_;
      for (int member : topo_.members(c)) {
        const auto i = static_cast<std::size_t>(member);
        if (!columns.correct[i]) continue;
        if ((fast && columns.gamma[i] != 1) || (slow && columns.gamma[i] != 0)) {
          ++misses_;
          break;
        }
      }
    }
  }

  /// steady_diameter: mean ‖p(r)‖ over the complete rounds r after the
  /// steady window opens (r > steady_after_rounds). predicted_diameter:
  /// the fixed point of the Claim B.15 recurrence of the γ regime
  /// (e_f^∞, e_s^∞, or e_g^∞). spike_*: the largest diameter and the next
  /// round's; contraction = spike_next / spike_diameter, the one-round
  /// factor Cor. B.13 bounds by alpha (the general recurrence's α).
  void emit_diameters(std::vector<std::pair<std::string, double>>& m) const {
    const core::Params& params = run_.params;
    const auto complete = diameters_->complete_rounds();
    double steady = 0.0;
    int counted = 0;
    for (const auto& [round, diameter] : complete) {
      if (round > run_.steady_after_rounds) {
        steady += diameter;
        ++counted;
      }
    }
    std::size_t spike = 0;
    for (std::size_t i = 1; i < complete.size(); ++i) {
      if (complete[i].second > complete[spike].second) spike = i;
    }
    const double spike_diameter =
        complete.empty() ? 0.0 : complete[spike].second;
    const double next =
        spike + 1 < complete.size() ? complete[spike + 1].second : 0.0;
    const double contraction =
        spike_diameter > 0.0 ? next / spike_diameter : 0.0;
    const core::RoundRecurrence& rec =
        run_.gamma_regime == GammaRegime::kFast   ? params.rec_fast
        : run_.gamma_regime == GammaRegime::kSlow ? params.rec_slow
                                                  : params.rec_general;
    append_group(m, kPulseDiameterMetrics,
                 {counted > 0 ? steady / counted : 0.0, rec.fixed_point(),
                  spike_diameter, next, contraction, params.rec_general.alpha,
                  contraction <= params.rec_general.alpha ? 1.0 : 0.0});
  }

  /// Amortized logical rates of the correct nodes from the steady window's
  /// first probe to the last, as (rate/(1+ϕ) − 1)/µ so that Lemma 3.6's
  /// bands read in units of µ: a unanimously fast cluster at ≥ 7/8, a
  /// slow one within ±1/8. Other regimes get Lemma B.4's per-node
  /// envelope [1, ϑ_max].
  void emit_rates(std::vector<std::pair<std::string, double>>& m, sim::Time t,
                  const core::SystemColumns& columns) const {
    const core::Params& params = run_.params;
    const auto in_mu = [&params](double rate) {
      return (rate / (1.0 + params.phi) - 1.0) / params.mu;
    };
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    if (rate_t0_ >= 0.0 && t > rate_t0_) {
      for (std::size_t i = 0; i < rate_l0_.size(); ++i) {
        if (!columns.correct[i]) continue;
        const double rate = (columns.logical[i] - rate_l0_[i]) / (t - rate_t0_);
        lo = std::min(lo, rate);
        hi = std::max(hi, rate);
      }
    }
    double band_lo = 1.0;
    double band_hi = params.max_logical_rate();
    if (run_.gamma_regime == GammaRegime::kFast) {
      band_lo = params.fast_cluster_rate_lower_bound();
    } else if (run_.gamma_regime == GammaRegime::kSlow) {
      band_lo = params.slow_cluster_rate_lower_bound();
      band_hi = params.slow_cluster_rate_upper_bound();
    }
    const bool measured = hi >= lo;
    append_group(m, kRateMetrics,
                 {measured ? in_mu(lo) : 0.0, measured ? in_mu(hi) : 0.0,
                  in_mu(band_lo), in_mu(band_hi),
                  measured && lo >= band_lo && hi <= band_hi ? 1.0 : 0.0});
  }

  const ResolvedRun& run_;
  const net::AugmentedTopology& topo_;
  std::unique_ptr<obs::PulseDiameters> diameters_;
  std::vector<obs::PulseRecorder> recorders_;
  sim::Time rate_t0_ = -1.0;
  std::vector<double> rate_l0_;
  std::uint64_t samples_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<double> clocks_;     ///< probe scratch
  std::vector<double> neighbors_;  ///< probe scratch
  obs::SettleTime settle_;
};

struct SampleMaxima {
  double max_local = 0.0;       // cluster-local
  double max_node_local = 0.0;
  double max_intra = 0.0;
  double max_global = 0.0;      // cluster-global
  double steady_local = 0.0;    // maxima over samples at t >= steady_after
  double steady_intra = 0.0;
  double steady_global = 0.0;
  double final_local = 0.0;
  double final_global = 0.0;
  double max_m_lag = 0.0;
};

// Uniform accessors over the two FT-GCS execution backends (the single
// simulator and the sharded conservative-parallel driver), so one
// measurement loop serves both and the metric schema cannot drift apart.
sim::Time system_now(core::FtGcsSystem& s) { return s.simulator().now(); }
sim::Time system_now(const par::ShardedFtGcsSystem& s) { return s.now(); }
std::uint64_t system_events(core::FtGcsSystem& s) {
  return s.simulator().fired_events();
}
std::uint64_t system_events(const par::ShardedFtGcsSystem& s) {
  return s.fired_events();
}
std::uint64_t system_messages(core::FtGcsSystem& s) {
  return s.network().messages_sent();
}
std::uint64_t system_messages(const par::ShardedFtGcsSystem& s) {
  return s.messages_sent();
}
sim::EventQueue::TierStats system_tier_stats(core::FtGcsSystem& s) {
  return s.simulator().queue_stats();
}
sim::EventQueue::TierStats system_tier_stats(
    const par::ShardedFtGcsSystem& s) {
  return s.queue_stats();
}
net::Network::DeliveryStats system_delivery_stats(core::FtGcsSystem& s) {
  return s.network().delivery_stats();
}
net::Network::DeliveryStats system_delivery_stats(
    const par::ShardedFtGcsSystem& s) {
  return s.delivery_stats();
}
void system_window_diag(core::FtGcsSystem&,
                        std::vector<obs::ShardWindowDiag>& out) {
  out.clear();
}
void system_window_diag(const par::ShardedFtGcsSystem& s,
                        std::vector<obs::ShardWindowDiag>& out) {
  s.shard_window_diag(out);
}
par::ShardedFtGcsSystem::ShardStats system_shard_stats(core::FtGcsSystem&) {
  return {};
}
par::ShardedFtGcsSystem::ShardStats system_shard_stats(
    const par::ShardedFtGcsSystem& s) {
  return s.shard_stats();
}

/// Advances the system to the probe time `t`. A traced single-simulator
/// run commits its capture every `window` of simulated time on the way,
/// so its buffers hold about one sharded safe window of records instead
/// of a whole probe interval; run_until(t) fires everything ≤ t, so the
/// file's bytes do not change. The sharded driver streams its own
/// windows.
void advance_to(core::FtGcsSystem& s, sim::Time t,
                trace::TraceCollector* collector, double window) {
  if (collector != nullptr) {
    for (sim::Time next = s.simulator().now() + window; next < t;
         next = s.simulator().now() + window) {
      s.run_until(next);
      collector->commit();
    }
  }
  s.run_until(t);
}
void advance_to(par::ShardedFtGcsSystem& s, sim::Time t,
                trace::TraceCollector*, double) {
  s.run_until(t);
}

/// Sample times: every probe interval, plus the horizon itself.
std::vector<double> sample_times(double horizon_rounds, double interval_rounds,
                                 double T) {
  std::vector<double> times;
  for (int i = 1; i * interval_rounds < horizon_rounds - 1e-9; ++i) {
    times.push_back(i * interval_rounds * T);
  }
  times.push_back(horizon_rounds * T);
  return times;
}

/// Runs the probe loop and assembles the metric schema against either
/// FT-GCS backend (single simulator or sharded). Every metric is computed
/// from merged ground truth + summed counters, so the rows are
/// bit-identical across backends and shard counts.
template <class System>
RunResult measure_ftgcs(System& system, const ResolvedRun& run,
                        const TopologyGraph& graph, ClaimProbes& claims,
                        trace::TraceCollector* collector,
                        obs::PhaseProfiler* profiler) {
  const core::Params& params = run.params;
  const net::AugmentedTopology& topo = *graph.topo;
  const int clusters = topo.num_clusters();
  const int diameter = run.diameter;

  const double s_init = (clusters - 1) * run.gap_rounds * params.T;
  const double band = params.predicted_global_skew(diameter);
  const double intra_bound = params.intra_cluster_skew_bound();

  // Online monitors: bounds derived from the same predictions the metric
  // schema reports. S_env = max(initial ramp height, c·δ·D band) is the
  // global-skew envelope of the whole run (the skew drains from s_init
  // into the band and never re-expands past it); Theorem 4.10 then bounds
  // the cluster-local skew for that S, and every node-level quantity adds
  // at most one intra-cluster spread on top of its cluster-level
  // counterpart (the monitor scans node clocks, the theorems speak about
  // cluster clocks). Single-cluster graphs have S_env = 0: only the
  // intra-cluster invariant is meaningful there.
  std::unique_ptr<trace::InvariantMonitor> monitor;
  if (run.monitors) {
    trace::MonitorBounds bounds;
    bounds.intra_cluster = intra_bound;
    const double s_env = std::max(s_init, band);
    if (s_env > 0.0) {
      bounds.local_skew = params.predicted_local_skew(s_env) + intra_bound;
      bounds.global_skew = s_env + intra_bound;
      if (run.measure_m_lag) bounds.m_lag = s_env + intra_bound;
    }
    monitor = std::make_unique<trace::InvariantMonitor>(graph, bounds);
  }

  // Deterministic metrics series: registered against the SAME bounds the
  // monitor checks, so the margin gauges and the footer print one truth.
  // The histogram scale is params-derived (envelope height, falling back
  // to the intra-cluster bound), hence identical across backends.
  std::unique_ptr<obs::ProbeSampler> sampler;
  if (!run.metrics_path.empty()) {
    obs::ProbeSampler::Config sampler_config;
    sampler_config.path = run.metrics_path;
    sampler_config.monitors = monitor != nullptr;
    if (monitor != nullptr) sampler_config.bounds = monitor->bounds();
    sampler_config.measure_m_lag = run.measure_m_lag;
    const double scale = std::max(intra_bound, std::max(s_init, band));
    sampler_config.hist_scale = scale > 0.0 ? scale : 1.0;
    sampler = std::make_unique<obs::ProbeSampler>(std::move(sampler_config),
                                                  graph);
    sampler->prewarm();
  }

  SampleMaxima agg;
  const double steady_after = run.steady_after_rounds * params.T;
  core::SystemColumns columns;  // reused across probes (columnar reads)
  std::vector<obs::ShardWindowDiag> diag_scratch;
  // The minimum message delay d − U: the conservative window width a
  // sharded run of these params uses.
  const double commit_window = params.d - params.U;
  for (double t : sample_times(run.horizon_rounds, run.probe_interval_rounds,
                               params.T)) {
    if (profiler != nullptr) profiler->span_begin("run");
    advance_to(system, t, collector, commit_window);
    if (profiler != nullptr) {
      profiler->span_end("run");
      profiler->span_begin("collect");
    }
    // Probe boundaries are quiesced commit points of the trace: every
    // shard has advanced to exactly t and its worker is parked, so the
    // per-shard capture buffers are safe to merge (both drivers have
    // streamed all but their last window already). The monitor's replay
    // cursor below reads the committed totals.
    if (collector != nullptr) collector->commit();
    system.snapshot_columns(columns);
    const auto skews = metrics::measure_skews(columns, topo);
    agg.max_local = std::max(agg.max_local, skews.cluster_local);
    agg.max_node_local = std::max(agg.max_node_local, skews.node_local);
    agg.max_intra = std::max(agg.max_intra, skews.intra_cluster);
    agg.max_global = std::max(agg.max_global, skews.cluster_global);
    if (t >= steady_after) {
      agg.steady_local = std::max(agg.steady_local, skews.cluster_local);
      agg.steady_intra = std::max(agg.steady_intra, skews.intra_cluster);
      agg.steady_global = std::max(agg.steady_global, skews.cluster_global);
    }
    agg.final_local = skews.cluster_local;
    agg.final_global = skews.cluster_global;
    double probe_m_lag = 0.0;
    if (run.measure_m_lag) {
      double lmax = 0.0;
      for (int id = 0; id < columns.num_nodes(); ++id) {
        if (columns.correct[static_cast<std::size_t>(id)]) {
          lmax = std::max(lmax, columns.logical[static_cast<std::size_t>(id)]);
        }
      }
      const sim::Time now = system_now(system);
      for (int id = 0; id < topo.num_nodes(); ++id) {
        if (!system.is_correct(id)) continue;
        probe_m_lag = std::max(
            probe_m_lag, lmax - system.node(id).max_estimate(now));
      }
      agg.max_m_lag = std::max(agg.max_m_lag, probe_m_lag);
    }
    if (monitor != nullptr) {
      trace::MonitorCursor cursor;
      cursor.at = t;
      cursor.events = system_events(system);
      cursor.trace_records = collector != nullptr ? collector->records() : 0;
      cursor.trace_offset =
          collector != nullptr ? collector->cursor_offset() : 0;
      monitor->observe(columns, cursor);
      if (run.measure_m_lag) monitor->observe_m_lag(probe_m_lag, cursor);
    }
    claims.probe(t, columns);
    if (sampler != nullptr) {
      obs::SampleContext ctx;
      ctx.at = t;
      ctx.events = system_events(system);
      ctx.messages = system_messages(system);
      ctx.skews = &skews;
      ctx.columns = &columns;
      ctx.monitor = monitor.get();
      ctx.m_lag = probe_m_lag;
      sampler->sample(ctx);
    }
    if (profiler != nullptr) {
      // The diag rows live in the sidecar, never the series: the tier mix
      // and the per-shard split are shard-dependent.
      system_window_diag(system, diag_scratch);
      const net::Network::DeliveryStats deliveries =
          system_delivery_stats(system);
      profiler->probe_diag(t, system_tier_stats(system), diag_scratch,
                           &deliveries);
      profiler->span_end("collect");
    }
  }

  // ---- static structure ----
  const std::size_t base_edges = run.graph.num_edges();
  std::size_t max_degree = 0;
  for (const auto& neighbors : topo.adjacency()) {
    max_degree = std::max(max_degree, neighbors.size());
  }

  const double init_local = run.gap_rounds * params.T;
  const double predicted_local =
      s_init > 0.0 ? params.predicted_local_skew(s_init) : 0.0;
  const double messages = static_cast<double>(system_messages(system));

  RunResult result;
  result.seed = run.seed;
  auto& m = result.metrics;
  m.emplace_back("clusters", clusters);
  m.emplace_back("diameter", diameter);
  m.emplace_back("nodes", topo.num_nodes());
  m.emplace_back("edges", static_cast<double>(topo.num_edges()));
  m.emplace_back("max_degree", static_cast<double>(max_degree));
  m.emplace_back("k", params.k);
  m.emplace_back("f", params.f);
  m.emplace_back("node_factor",
                 static_cast<double>(topo.num_nodes()) / clusters);
  m.emplace_back("edge_factor",
                 base_edges > 0
                     ? static_cast<double>(topo.num_edges()) / base_edges
                     : 0.0);
  m.emplace_back("edge_factor_norm",
                 base_edges > 0 ? static_cast<double>(topo.num_edges()) /
                                      (base_edges * (params.f + 1.0) *
                                       (params.f + 1.0))
                                : 0.0);
  m.emplace_back("kappa", params.kappa);
  m.emplace_back("delta", params.delta_trig);
  m.emplace_back("T", params.T);
  m.emplace_back("E", params.E);
  m.emplace_back("S_init", s_init);
  m.emplace_back("init_local", init_local);
  m.emplace_back("max_local", agg.max_local);
  m.emplace_back("max_node_local", agg.max_node_local);
  m.emplace_back("max_intra", agg.max_intra);
  m.emplace_back("max_global", agg.max_global);
  m.emplace_back("steady_local", agg.steady_local);
  m.emplace_back("steady_intra", agg.steady_intra);
  m.emplace_back("steady_global", agg.steady_global);
  m.emplace_back("final_local", agg.final_local);
  m.emplace_back("final_global", agg.final_global);
  m.emplace_back("ratio_local",
                 init_local > 0.0 ? agg.max_local / init_local : 0.0);
  m.emplace_back("local_over_kappa",
                 params.kappa > 0.0 ? agg.max_local / params.kappa : 0.0);
  m.emplace_back("log2_diameter",
                 diameter > 0 ? std::log2(static_cast<double>(diameter))
                              : 0.0);
  m.emplace_back("predicted_local", predicted_local);
  m.emplace_back("in_local_bound",
                 predicted_local <= 0.0 || agg.max_local <= predicted_local
                     ? 1.0
                     : 0.0);
  m.emplace_back("band", band);
  // Drain semantics: the remaining skew at the horizon is inside the band.
  m.emplace_back("in_global_band", agg.final_global <= band ? 1.0 : 0.0);
  // Containment semantics: the band was never left at any sample.
  m.emplace_back("in_global_band_max", agg.max_global <= band ? 1.0 : 0.0);
  m.emplace_back("intra_bound", intra_bound);
  m.emplace_back("in_intra_bound", agg.max_intra <= intra_bound ? 1.0 : 0.0);
  m.emplace_back("violations",
                 static_cast<double>(system.total_violations()));
  m.emplace_back("messages", messages);
  m.emplace_back("msgs_round_node",
                 messages / (run.horizon_rounds * topo.num_nodes()));
  m.emplace_back("events", static_cast<double>(system_events(system)));
  if (run.measure_m_lag) m.emplace_back("max_m_lag", agg.max_m_lag);
  claims.emit(m, system_now(system), columns, s_init, agg.final_global);
  result.queue = system_tier_stats(system);
  result.deliveries = system_delivery_stats(system);
  result.shard = system_shard_stats(system);
  if (monitor != nullptr) result.monitor = monitor->report();
  if (sampler != nullptr) {
    sampler->finish();
    result.series = sampler->stats();
  }
  return result;
}

/// When the transient fault of ScenarioSpec::perturbation (E12) strikes,
/// in rounds.
constexpr double kTransientRounds = 10.0;

/// Installs the run's scheduled interventions and hooks on a built
/// system, starts it, and measures it: edge activation (App. A),
/// transient fault (E12), γ regime (E3) and the claim probes. Then seals
/// the trace (end marker + trailer) and stamps the capture summary into
/// the result.
template <class System>
RunResult start_and_measure(System& system, const ResolvedRun& run,
                            const TopologyGraph& graph, ClaimProbes& claims,
                            std::vector<GammaOverride>& gamma_hooks,
                            trace::TraceCollector* collector,
                            obs::PhaseProfiler* profiler) {
  const core::Params& params = run.params;
  const net::AugmentedTopology& topo = *graph.topo;
  if (run.activate_rounds >= 0.0) {
    system.schedule_edge_toggle(0, topo.num_clusters() - 1, true,
                                run.activate_rounds * params.T);
  }
  if (run.perturbation > 0.0) {
    system.node(topo.node(0, 0))
        .inject_transient_fault_at(
            kTransientRounds * params.T,
            run.perturbation * params.phi * params.tau3);
  }
  if (run.gamma_regime != GammaRegime::kProtocol) {
    gamma_hooks.reserve(static_cast<std::size_t>(topo.num_nodes()));
    for (int id = 0; id < topo.num_nodes(); ++id) {
      if (!system.is_correct(id)) continue;
      gamma_hooks.emplace_back(run.gamma_regime, owner_of(system, id), id);
      system.node(id).engine().set_hooks(&gamma_hooks.back());
    }
  }
  claims.install(system);
  system.start();
  if (profiler != nullptr) profiler->span_end("setup");

  RunResult result =
      measure_ftgcs(system, run, graph, claims, collector, profiler);
  if (collector != nullptr) {
    collector->finish();
    result.trace = collector->stats();
  }
  if (profiler != nullptr) {
    // Read the accumulators, then let finish() write the sidecar rows and
    // close the file. The workers are parked at the start barrier here
    // (run_until returned), so the slot reads are barrier-ordered.
    result.profile = profiler->totals();
    profiler->finish();
  }
  return result;
}

RunResult run_ftgcs(const ResolvedRun& run) {
  const core::Params& params = run.params;

  // Created before either backend (like the trace collector below) so it
  // outlives the system: parked workers touch their phase slots until
  // the system's destructor joins them.
  std::unique_ptr<obs::PhaseProfiler> profiler;
  if (!run.metrics_path.empty()) {
    profiler =
        std::make_unique<obs::PhaseProfiler>(run.metrics_path + ".profile");
    profiler->span_begin("setup");
  }

  net::AugmentedTopology topo(run.graph, params.k);
  const int clusters = topo.num_clusters();
  // The one graph of the run (monitor, sampler and shard plan borrow it).
  const TopologyGraph graph =
      build_topology_graph(topo, net::UniformDelay(params.d, params.U));

  // Created before either backend so its shard sinks outlive the system;
  // the resulting file is byte-identical at every shard count.
  std::unique_ptr<trace::TraceCollector> collector;
  if (!run.trace_path.empty()) {
    collector = std::make_unique<trace::TraceCollector>(run.trace_path);
  }
  // Hooks the engines call into: declared before the system, so they
  // outlive it.
  ClaimProbes claims(run, topo);
  std::vector<GammaOverride> gamma_hooks;

  std::vector<int> offsets;
  if (run.gap_rounds > 0) {
    for (int c = 0; c < clusters; ++c) {
      offsets.push_back(c * run.gap_rounds);
    }
  }
  std::vector<std::pair<int, int>> inactive_edges;
  if (run.activate_rounds >= 0.0) inactive_edges.push_back({0, clusters - 1});

  if (run.shards > 1) {
    // The sharded backend needs a non-degenerate partition (≥ 2 effective
    // shards and a positive conservative lookahead); otherwise fall
    // through to the single-simulator engine below.
    par::ShardPlan plan = par::make_shard_plan(graph, run.shards);
    if (!plan.degenerate()) {
      par::ShardedFtGcsSystem::Config config;
      config.params = params;
      config.seed = run.seed;
      config.enable_global_module = run.global_module;
      config.replicas_know_offsets = run.replicas_know_offsets;
      config.fault_plan = run.fault_plan;
      config.cluster_round_offsets = offsets;
      config.initially_inactive_edges = inactive_edges;
      config.shards = plan.num_shards;
      config.plan = std::move(plan);  // probed above; skip the re-census
      config.shared_topo = &topo;  // one topology for driver + every shard
      // Every shard replays the same rate draws: the factory rebuilds the
      // model from the same spec and seed per shard.
      if (run.drift.kind != DriftKind::kSpreadConstant) {
        config.drift_factory = [&run, &params, clusters] {
          return build_drift(run.drift, params, clusters, params.k,
                             run.seed);
        };
      }
      if (run.delay != DelayKind::kUniform) {
        config.delay_factory = [&run, &params] {
          return build_delay(run.delay, params);
        };
      }
      config.trace = collector.get();
      config.profiler = profiler.get();
      par::ShardedFtGcsSystem system(run.graph, std::move(config));
      return start_and_measure(system, run, graph, claims, gamma_hooks,
                               collector.get(), profiler.get());
    }
  }

  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = run.seed;
  config.enable_global_module = run.global_module;
  config.replicas_know_offsets = run.replicas_know_offsets;
  if (run.delay != DelayKind::kUniform) {
    config.delay_model = build_delay(run.delay, params);
  }
  config.drift_model =
      build_drift(run.drift, params, clusters, params.k, run.seed);
  config.fault_plan = run.fault_plan;
  config.cluster_round_offsets = offsets;
  config.initially_inactive_edges = inactive_edges;
  config.shared_topo = &topo;  // already built above for metrics
  if (collector != nullptr) config.trace_sink = collector->shard_sink(0);

  core::FtGcsSystem system(run.graph, std::move(config));
  return start_and_measure(system, run, graph, claims, gamma_hooks,
                           collector.get(), profiler.get());
}

/// Inequality (1) by Monte-Carlo, no simulation: kFaultSamplingTrials
/// placements of i.i.d. faults (probability p per node) over the graph's
/// clusters of k = 3f+1 members. p_fail is the share of clusters over
/// their budget f (against the binomial tail and the (3ep)^(f+1) bound),
/// survival the share of placements with no cluster over budget (against
/// (1 − P1)^clusters).
constexpr int kFaultSamplingTrials = 200000;

RunResult run_fault_sampling(const ResolvedRun& run) {
  const int clusters = run.graph.num_vertices();
  const int k = run.params.k;
  const int f = run.params.f;
  const double p = run.fault_probability;
  sim::Rng rng(run.seed);
  std::uint64_t over_budget = 0;
  std::uint64_t survived = 0;
  for (int trial = 0; trial < kFaultSamplingTrials; ++trial) {
    bool all_within = true;
    for (int c = 0; c < clusters; ++c) {
      int faulty = 0;
      for (int node = 0; node < k; ++node) {
        if (rng.chance(p)) ++faulty;
      }
      if (faulty > f) {
        ++over_budget;
        all_within = false;
      }
    }
    if (all_within) ++survived;
  }
  const double binomial = core::cluster_failure_probability(f, p);
  const double bound = core::cluster_failure_bound(f, p);
  RunResult result;
  result.seed = run.seed;
  auto& m = result.metrics;
  m.emplace_back("clusters", clusters);
  m.emplace_back("k", k);
  m.emplace_back("f", f);
  m.emplace_back("p", p);
  m.emplace_back("p_fail", static_cast<double>(over_budget) /
                               (static_cast<double>(kFaultSamplingTrials) *
                                clusters));
  m.emplace_back("p_fail_binomial", binomial);
  m.emplace_back("p_fail_bound", bound);
  m.emplace_back("in_failure_bound", binomial <= bound ? 1.0 : 0.0);
  m.emplace_back("survival",
                 static_cast<double>(survived) / kFaultSamplingTrials);
  m.emplace_back("survival_analytic", std::pow(1.0 - binomial, clusters));
  return result;
}

/// The one probe loop of the comparison systems: starts `system`, probes
/// `read(system)` (local, global skew) on the sample_times grid, and fills
/// the shared baseline schema. `own` carries the metrics only the builder
/// knows (the plain-GCS trigger κ).
template <class System, class Read>
RunResult measure_baseline(
    System& system, const ResolvedRun& run, int nodes, Read read,
    const std::vector<std::pair<std::string, double>>& own = {}) {
  system.start();
  SampleMaxima agg;
  for (double t : sample_times(run.horizon_rounds, run.probe_interval_rounds,
                               run.params.T)) {
    system.run_until(t);
    const auto [local, global] = read(system);
    agg.max_local = std::max(agg.max_local, local);
    agg.max_global = std::max(agg.max_global, global);
    agg.final_local = local;
    agg.final_global = global;
  }

  const int n = run.graph.num_vertices();
  RunResult result;
  result.seed = run.seed;
  auto& m = result.metrics;
  m.emplace_back("clusters", n);
  m.emplace_back("diameter", run.diameter);
  m.emplace_back("nodes", nodes);
  m.emplace_back("edges", static_cast<double>(run.graph.num_edges()));
  m.insert(m.end(), own.begin(), own.end());
  m.emplace_back("S_init", (n - 1) * run.gap_rounds * run.params.T);
  m.emplace_back("init_local", run.gap_rounds * run.params.T);
  m.emplace_back("max_local", agg.max_local);
  m.emplace_back("max_global", agg.max_global);
  m.emplace_back("final_local", agg.final_local);
  m.emplace_back("final_global", agg.final_global);
  m.emplace_back("events",
                 static_cast<double>(system.simulator().fired_events()));
  result.queue = system.simulator().queue_stats();
  return result;
}

/// Builds the comparison system of `run.protocol` and hands it to
/// measure_baseline. Every kind runs on one simulator (`shards` ignored).
RunResult run_baseline(const ResolvedRun& run) {
  const core::Params& params = run.params;
  const int n = run.graph.num_vertices();
  const auto drift = [&](int members_per_cluster) {
    return build_drift(run.drift, params, n, members_per_cluster, run.seed);
  };
  const auto local_global = [](const auto& system) {
    return std::pair{system.local_skew(), system.global_skew()};
  };
  switch (run.protocol) {
    case ProtocolKind::kGcsBaseline: {
      gcs::GcsSystem::Config config;
      const double mu = run.baseline_mu > 0.0 ? run.baseline_mu : 0.05;
      config.params =
          gcs::GcsParams::derive(params.rho, params.d, params.U, mu, params.d);
      config.seed = run.seed;
      config.drift_model = drift(1);
      if (run.fault_plan.size() > 0) {
        // Plain GCS has no cluster structure: reuse the planned node ids
        // as pump nodes (ids beyond the base graph are clamped away).
        for (const auto& spec : run.fault_plan.specs()) {
          if (spec.node < n) config.pump_nodes.push_back(spec.node);
        }
        config.pump_rate = run.fault_plan.specs().front().param;
      }
      const double kappa = config.params.kappa;
      gcs::GcsSystem system(run.graph, std::move(config));
      return measure_baseline(system, run, n, local_global,
                              {{"kappa", kappa}});
    }
    case ProtocolKind::kSrikanthToueg: {
      // A clique of the graph's n vertices: ST reads only rho, d and U.
      const std::size_t pairs = static_cast<std::size_t>(n) * (n - 1) / 2;
      if (n <= 3 * params.f || run.graph.num_edges() != pairs) {
        throw std::invalid_argument(
            "srikanth-toueg needs a clique of n > 3f vertices, got n=" +
            std::to_string(n));
      }
      baselines::SrikanthTouegSystem::Config config;
      config.n = n;
      config.f = params.f;
      config.rho = params.rho;
      config.d = params.d;
      config.U = params.U;
      config.period = 10.0 * params.d;
      config.seed = run.seed;
      config.drift_model = drift(1);
      baselines::SrikanthTouegSystem system(std::move(config));
      return measure_baseline(system, run, n, [](const auto& st) {
        const double skew = st.skew();  // every pair is an edge
        return std::pair{skew, skew};
      });
    }
    case ProtocolKind::kTreeSync: {
      baselines::TreeSyncSystem::Config config;
      config.rho = params.rho;
      config.d = params.d;
      config.U = params.U;
      config.share_period = 4.0;
      config.seed = run.seed;
      config.drift_model = drift(1);
      for (int v = 0; v < n; ++v) {
        config.initial_logical.push_back(v * run.gap_rounds * params.T);
      }
      baselines::TreeSyncSystem system(run.graph, std::move(config));
      return measure_baseline(system, run, n, local_global);
    }
    case ProtocolKind::kClusterTree: {
      baselines::ClusterTreeSystem::Config config;
      config.params = params;
      config.seed = run.seed;
      config.drift_model = drift(params.k);
      config.fault_plan = run.fault_plan;
      for (int c = 0; c < n; ++c) {
        config.cluster_round_offsets.push_back(c * run.gap_rounds);
      }
      baselines::ClusterTreeSystem system(run.graph, std::move(config));
      return measure_baseline(
          system, run, system.topology().num_nodes(), [](const auto& tree) {
            return std::pair{tree.cluster_local_skew(),
                             tree.cluster_global_skew()};
          });
    }
    case ProtocolKind::kFtGcs:
    case ProtocolKind::kFaultSampling:
      break;
  }
  FTGCS_ASSERT(false);
  return {};
}

/// Typed errors for the FT-GCS run variations a spec asks for where they
/// cannot apply.
void check_variations(const ScenarioSpec& spec, const ResolvedRun& run) {
  if (spec.protocol != ProtocolKind::kFtGcs &&
      (spec.delay != DelayKind::kUniform ||
       spec.gamma_regime != GammaRegime::kProtocol ||
       spec.activate_rounds >= 0.0 || spec.perturbation > 0.0 ||
       !spec.global_module)) {
    throw std::invalid_argument(
        std::string("delay, gamma_regime, activate_rounds, perturbation and "
                    "global_module are FT-GCS variations; ") +
        protocol_name(spec.protocol) + " has none of them");
  }
  const int last = run.graph.num_vertices() - 1;
  if (spec.activate_rounds >= 0.0 &&
      (last == 0 || !run.graph.has_edge(0, last))) {
    throw std::invalid_argument("activate_rounds: clusters 0 and " +
                                std::to_string(last) +
                                " share no edge to insert");
  }
  if (spec.perturbation > 0.0 && run.fault_plan.contains(0)) {
    throw std::invalid_argument(
        "perturbation: node 0 (member 0 of cluster 0) is faulty");
  }
}

}  // namespace

void Diagnostics::merge(const Diagnostics& task) {
  for_each_stats(
      [](auto& into, const auto& from) {
        support::merge(into, from, support::Scope::kTasks);
      },
      *this, task);
}

bool RunResult::has_metric(const std::string& name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return true;
  }
  return false;
}

double RunResult::metric(const std::string& name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  FTGCS_EXPECTS(!"unknown metric name");
  return 0.0;
}

ResolvedRun resolve(const ScenarioSpec& spec, std::uint64_t seed) {
  ResolvedRun run;
  run.params = spec.params.build();
  run.graph = spec.topology.build();
  run.protocol = spec.protocol;
  run.shards = spec.shards;
  run.drift = spec.drift;
  run.baseline_mu = spec.params.mu;
  run.seed = seed;
  run.probe_interval_rounds = spec.probe_interval_rounds;
  run.steady_after_rounds = spec.steady_after_rounds;
  run.measure_m_lag = spec.measure_m_lag;
  run.replicas_know_offsets = spec.replicas_know_offsets;
  run.global_module = spec.global_module;
  run.delay = spec.delay;
  run.gamma_regime = spec.gamma_regime;
  run.activate_rounds = spec.activate_rounds;
  run.perturbation = spec.perturbation;
  if (spec.protocol == ProtocolKind::kFtGcs) {
    for (const std::string& column : spec.columns) {
      run.metric_groups |= metric_group_bit(column);
    }
  }
  run.trace_path = spec.trace_path;
  run.metrics_path = spec.metrics_path;
  run.monitors = spec.monitors;

  // Params::custom keeps a (mu, phi) whose Claim B.15 recurrence does not
  // contract and sets E = 0, which FT-GCS's round lengths cannot use (the
  // cluster tree runs the same Algorithm 1). Srikanth-Toueg and the other
  // baselines ignore E, so they keep accepting such values.
  if ((spec.protocol == ProtocolKind::kFtGcs ||
       spec.protocol == ProtocolKind::kClusterTree) &&
      !run.params.feasible()) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "params rho=%g d=%g U=%g mu=%g phi=%g: infeasible for %s\n",
                  run.params.rho, run.params.d, run.params.U, run.params.mu,
                  run.params.phi, protocol_name(spec.protocol));
    throw std::invalid_argument(buf + run.params.feasibility_report());
  }

  run.diameter = run.graph.diameter();
  run.gap_rounds = spec.ramp.resolve(run.params, run.diameter);
  const double s_init =
      (run.graph.num_vertices() - 1) * run.gap_rounds * run.params.T;
  run.horizon_rounds = spec.horizon.resolve(run.params, run.diameter, s_init);

  if (spec.protocol == ProtocolKind::kFaultSampling) {
    if (!spec.faults.active() || spec.faults.mode != FaultMode::kIid ||
        run.params.k != 3 * run.params.f + 1) {
      throw std::invalid_argument(
          "fault-sampling draws i.i.d. faults (fault_mode=3) over clusters "
          "of k = 3f+1");
    }
    run.fault_probability = spec.faults.probability;
  } else if (spec.protocol == ProtocolKind::kFtGcs ||
             spec.protocol == ProtocolKind::kClusterTree) {
    net::AugmentedTopology topo(run.graph, run.params.k);
    run.fault_plan =
        build_fault_plan(spec.faults, topo, run.params, seed);
  } else if (spec.faults.active() &&
             spec.protocol != ProtocolKind::kGcsBaseline) {
    throw std::invalid_argument(std::string(protocol_name(spec.protocol)) +
                                " models no faults: set fault_mode=0");
  } else if (spec.faults.active()) {
    // Baseline pump faults (one node per cluster-graph vertex): kInCluster
    // puts `count` nodes on consecutive vertices from `cluster`; every
    // other mode spreads them evenly over the graph.
    const int count = std::max(1, spec.faults.count);
    const int n = run.graph.num_vertices();
    const bool placed = spec.faults.mode == FaultMode::kInCluster;
    FTGCS_EXPECTS(!placed || (spec.faults.cluster >= 0 &&
                              spec.faults.cluster < n));
    for (int i = 0; i < count && i < n; ++i) {
      byz::FaultSpec fault;
      fault.node = placed ? (spec.faults.cluster + i) % n
                          : static_cast<int>(
                                (static_cast<long long>(i) * n) / count);
      fault.kind = spec.faults.strategy;
      fault.param = spec.faults.param_abs;
      run.fault_plan.add(fault);
    }
  }
  check_variations(spec, run);
  return run;
}

RunResult run_resolved(const ResolvedRun& run) {
  switch (run.protocol) {
    case ProtocolKind::kFtGcs:
      return run_ftgcs(run);
    case ProtocolKind::kFaultSampling:
      return run_fault_sampling(run);
    default:
      return run_baseline(run);
  }
}

RunResult run_point(const ScenarioSpec& spec, std::uint64_t seed) {
  RunResult result = run_resolved(resolve(spec, seed));
  result.scenario = spec.name;
  return result;
}

}  // namespace ftgcs::exp
