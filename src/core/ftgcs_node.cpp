#include "core/ftgcs_node.h"

#include <algorithm>
#include <limits>
#include <span>

#include "core/node_table.h"
#include "support/assert.h"
#include "support/numeric.h"

namespace ftgcs::core {

NodeConstants::NodeConstants(const Params& p,
                             const net::AugmentedTopology& topo)
    : params(p), sync(ClusterSyncConfig::from(p)) {
  level.d = p.d;
  level.U = p.U;
  level.rho = p.rho;
  level.f = p.f;
  std::size_t max_degree = 0;
  for (int c = 0; c < topo.num_clusters(); ++c) {
    max_degree = std::max(max_degree, topo.cluster_neighbors(c).size());
  }
  unit_weights.assign(max_degree, 1.0);
}

FtGcsNode::FtGcsNode(sim::Simulator& simulator, net::Network& network,
                     const net::AugmentedTopology& topo,
                     const NodeConstants& constants, int node_id,
                     sim::Rng rng, const Options& options)
    : sim_(simulator),
      net_(network),
      constants_(constants),
      id_(node_id),
      cluster_(topo.cluster_of(node_id)),
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
    edge_weights_ = options.edge_weights;
  }

  engine_.set_hooks(this);

  if (options.enable_global_module) {
    max_estimator_.emplace(simulator, constants.level, 1.0);
    max_estimator_->on_emit = [this](int level) {
      broadcast(net::PulseKind::kMaxLevel, level);
    };
  }
}

void FtGcsNode::broadcast(net::PulseKind kind, int level) {
  if (crashed_) return;
  net::Pulse pulse;
  pulse.sender = id_;
  pulse.kind = kind;
  pulse.level = level;
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
  // Without edge weights every weight is 1, and any prefix of the shared
  // all-ones span is parallel to the active estimates.
  std::vector<double>& ests = round_ests_;
  ests.clear();
  round_weights_.clear();
  const auto& adjacent = estimates_.clusters();
  ests.reserve(adjacent.size());
  // Estimates are read by replica position (one clock read per active
  // edge), not by cluster id — no per-estimate routing scan.
  for (std::size_t i = 0; i < adjacent.size(); ++i) {
    if (!edge_active_[i]) continue;
    ests.push_back(estimates_.estimate_at(i, now));
    if (!edge_weights_.empty()) round_weights_.push_back(edge_weights_[i]);
  }
  const std::span<const double> weights =
      edge_weights_.empty()
          ? std::span<const double>(constants_.unit_weights)
                .first(ests.size())
          : std::span<const double>(round_weights_);
  const ModeDecision decision =
      controller_.decide(self, ests, weights, max_estimate(now));
  engine_.clock().set_gamma(now, decision.gamma);
  if (table_ != nullptr) table_->set_gamma(id_, decision.gamma);
  ++mode_counts_[static_cast<std::size_t>(decision.reason)];

  if (on_round_observed) {
    const double logical_start = engine_.round_start_logical();
    const sim::Time predicted_pulse =
        engine_.clock().when_reaches(logical_start + params().tau1, now);
    on_round_observed(round, now, predicted_pulse, logical_start);
  }
}

void FtGcsNode::set_hardware_rate(sim::Time now, double rate) {
  // Paper §2's model, h ∈ [1, 1+ρ]. The envelope check is on a
  // dimensionless rate; its slack is the rate epsilon, not the (much
  // looser) time epsilon this used to borrow. The lower bound is exact:
  // the send-time proof that a level delivery is dead
  // (core/node_table.h) needs M_v to grow at no less than 1/(1+ρ).
  FTGCS_EXPECTS(rate >= 1.0 && rate <= 1.0 + params().rho + support::kRateEps);
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
      // Crash-stop: cancel every pending engine/replica/estimator timer
      // and mark the columnar state, which drops every later delivery.
      // From here on the node schedules nothing, processes nothing, and
      // sends nothing — its event and timer counts freeze.
      crashed_ = true;
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
