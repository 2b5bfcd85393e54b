#include "core/ftgcs_node.h"

#include <limits>

#include "core/node_table.h"
#include "support/assert.h"
#include "support/numeric.h"

namespace ftgcs::core {

NodeConstants::NodeConstants(const Params& p)
    : params(p), sync(ClusterSyncConfig::from(p)) {
  level.d = p.d;
  level.U = p.U;
  level.rho = p.rho;
  level.f = p.f;
}

FtGcsNode::FtGcsNode(sim::Simulator& simulator, net::Network& network,
                     const net::AugmentedTopology& topo,
                     const NodeConstants& constants, int node_id,
                     sim::Rng rng, const Options& options)
    : sim_(simulator),
      net_(network),
      topo_(topo),
      constants_(constants),
      id_(node_id),
      cluster_(topo.cluster_of(node_id)),
      hardware_(simulator.now(), 0.0, 1.0),
      engine_(simulator, constants.sync, ClusterSyncMode::kActive,
              options.start_round, 1.0, rng.fork(1)),
      estimates_(simulator, constants.sync, topo.cluster_neighbors(cluster_),
                 1.0, rng, options.replica_start_rounds),
      controller_(constants.params.kappa, constants.params.delta_trig,
                  constants.params.c_global, options.enable_global_module) {
  self_ = simulator.register_sink(this);
  engine_.set_own_index(topo.index_in_cluster(node_id));

  edge_active_.assign(estimates_.clusters().size(), true);
  for (int inactive : options.initially_inactive) {
    set_edge_active(inactive, false);
  }

  if (!options.edge_weights.empty()) {
    FTGCS_EXPECTS(options.edge_weights.size() ==
                  estimates_.clusters().size());
    for (double weight : options.edge_weights) {
      edge_kappas_.push_back(weight * params().kappa);
      edge_slacks_.push_back(weight * params().delta_trig);
    }
  }

  engine_.set_hooks(this);

  if (options.enable_global_module) {
    max_estimator_.emplace(simulator, constants.level, 1.0);
    max_estimator_->on_emit = [this](int level) {
      if (crashed_) return;
      net::Pulse pulse;
      pulse.sender = id_;
      pulse.kind = net::PulseKind::kMaxLevel;
      pulse.level = level;
      net_.broadcast(id_, pulse);
    };
  }
}

void FtGcsNode::on_pulse_instant(int /*round*/, sim::Time /*now*/) {
  if (crashed_) return;
  net::Pulse pulse;
  pulse.sender = id_;
  pulse.kind = net::PulseKind::kClusterPulse;
  net_.broadcast(id_, pulse);
}

void FtGcsNode::start() {
  engine_.start();
  estimates_.start();
  if (max_estimator_) max_estimator_->start();
}

void FtGcsNode::attach_table(NodeTable* table) {
  table_ = table;
  if (max_estimator_) {
    max_estimator_->bind_mirror(table->level_mirror(id_));
    max_estimator_->bind_quorum(table->quorum_span(id_),
                                table->quorum_count(id_));
  }
}

double FtGcsNode::max_estimate(sim::Time now) const {
  return max_estimator_ ? max_estimator_->read(now)
                        : -std::numeric_limits<double>::infinity();
}

void FtGcsNode::on_round_start(int round) {
  const sim::Time now = sim_.now();
  // Algorithm 2: evaluate the triggers on the node's own logical clock
  // (its stand-in for the cluster clock) and its estimates of adjacent
  // cluster clocks; pick γ_v for the entire round.
  const double self = engine_.clock().read(now);
  if (max_estimator_) max_estimator_->observe_own_clock(self, now);
  // Only estimates of currently-active edges are considered by the
  // triggers (all edges active unless the dynamic-topology API is used).
  std::vector<double>& ests = round_ests_;
  std::vector<double>& kappas = round_kappas_;
  std::vector<double>& slacks = round_slacks_;
  ests.clear();
  kappas.clear();
  slacks.clear();
  const bool weighted = !edge_kappas_.empty();
  const auto& adjacent = estimates_.clusters();
  ests.reserve(adjacent.size());
  // Estimates are read by replica position (one clock read per active
  // edge), not by cluster id — no per-estimate routing scan.
  for (std::size_t i = 0; i < adjacent.size(); ++i) {
    if (!edge_active_[i]) continue;
    ests.push_back(estimates_.estimate_at(i, now));
    if (weighted) {
      kappas.push_back(edge_kappas_[i]);
      slacks.push_back(edge_slacks_[i]);
    }
  }
  const ModeDecision decision =
      weighted ? controller_.decide_weighted(self, ests, kappas, slacks,
                                             max_estimate(now))
               : controller_.decide(self, ests, max_estimate(now));
  engine_.clock().set_gamma(now, decision.gamma);
  if (table_ != nullptr) table_->set_gamma(id_, decision.gamma);
  last_reason_ = decision.reason;
  ++mode_counts_[static_cast<std::size_t>(decision.reason)];

  if (on_round_observed) {
    const double logical_start = engine_.round_start_logical();
    const sim::Time predicted_pulse =
        engine_.clock().when_reaches(logical_start + params().tau1, now);
    on_round_observed(round, now, predicted_pulse, logical_start);
  }
}

void FtGcsNode::on_pulse(const net::Pulse& pulse, sim::Time now) {
  switch (pulse.kind) {
    case net::PulseKind::kClusterPulse: {
      const int sender_cluster = topo_.cluster_of(pulse.sender);
      const int index = topo_.index_in_cluster(pulse.sender);
      if (sender_cluster == cluster_) {
        engine_.on_member_pulse(index, now);
      } else {
        // route_pulse drops pulses from non-adjacent clusters (the
        // physical network only connects adjacent ones).
        estimates_.route_pulse(sender_cluster, index, now);
      }
      break;
    }
    case net::PulseKind::kMaxLevel: {
      // Cheap rejects (self-loopback, below the flooding floor) before
      // the topology lookups: most level pulses in a synchronized system
      // are stale, and this is the highest-traffic path there is.
      if (max_estimator_ && pulse.sender != id_ &&
          !max_estimator_->is_stale_level(pulse.level)) {
        max_estimator_->on_level_pulse(topo_.cluster_of(pulse.sender),
                                       topo_.index_in_cluster(pulse.sender),
                                       /*from_self=*/false, pulse.level, now);
      }
      break;
    }
    case net::PulseKind::kShare:
    case net::PulseKind::kPropose:
      break;  // baseline traffic; not part of this protocol
  }
}

void FtGcsNode::set_hardware_rate(sim::Time now, double rate) {
  // Paper §2's model, h ∈ [1, 1+ρ]. The envelope check is on a
  // dimensionless rate; its slack is the rate epsilon, not the (much
  // looser) time epsilon this used to borrow. The lower bound is exact:
  // the send-time proof that a level delivery is dead
  // (core/node_table.h) needs M_v to grow at no less than 1/(1+ρ).
  FTGCS_EXPECTS(rate >= 1.0 && rate <= 1.0 + params().rho + support::kRateEps);
  hardware_.set_rate(now, rate);
  engine_.set_hardware_rate(now, rate);
  estimates_.set_hardware_rate(now, rate);
  if (max_estimator_) max_estimator_->set_hardware_rate(now, rate);
}

namespace {
// FtGcsNode kTimer payload.a discriminates the scheduled action.
constexpr std::int32_t kCrashAction = 0;
constexpr std::int32_t kInjectAction = 1;
}  // namespace

void FtGcsNode::crash_at(sim::Time t) {
  sim::EventPayload payload;
  payload.a = kCrashAction;
  sim_.post_at(t, sim::EventKind::kTimer, self_, payload);
}

void FtGcsNode::inject_transient_fault_at(sim::Time t, double offset) {
  sim::EventPayload payload;
  payload.a = kInjectAction;
  payload.x = offset;
  sim_.post_at(t, sim::EventKind::kTimer, self_, payload);
}

void FtGcsNode::on_event(sim::EventKind kind,
                         const sim::EventPayload& payload, sim::Time now) {
  FTGCS_ASSERT(kind == sim::EventKind::kTimer);
  switch (payload.a) {
    case kCrashAction:
      // Crash-stop: swap the receive path to the null sink, cancel every
      // pending engine/replica/estimator timer, and mark the columnar
      // state. From here on the node schedules nothing, processes
      // nothing, and sends nothing — its event and timer counts freeze.
      crashed_ = true;
      net_.register_null_handler(id_);
      engine_.halt();
      estimates_.halt();
      if (max_estimator_) max_estimator_->halt();
      if (table_ != nullptr) table_->mark_crashed(id_, now);
      break;
    case kInjectAction:
      engine_.inject_transient_fault(now, payload.x);
      break;
    default:
      FTGCS_ASSERT(false && "unknown node action");
  }
}

void FtGcsNode::set_edge_active(int cluster, bool active) {
  const auto& adjacent = estimates_.clusters();
  for (std::size_t i = 0; i < adjacent.size(); ++i) {
    if (adjacent[i] == cluster) {
      edge_active_[i] = active;
      return;
    }
  }
  FTGCS_EXPECTS(false && "set_edge_active: cluster not adjacent");
}

bool FtGcsNode::edge_active(int cluster) const {
  const auto& adjacent = estimates_.clusters();
  for (std::size_t i = 0; i < adjacent.size(); ++i) {
    if (adjacent[i] == cluster) return edge_active_[i];
  }
  FTGCS_EXPECTS(false && "edge_active: cluster not adjacent");
  return false;
}

}  // namespace ftgcs::core
