#include "baselines/cluster_tree_sync.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/assert.h"

namespace ftgcs::baselines {

EchoClusterNode::EchoClusterNode(sim::Simulator& simulator,
                                 net::Network& network,
                                 const net::AugmentedTopology& topo,
                                 const core::Params& params, int node_id,
                                 int parent_cluster, int depth,
                                 double initial_logical)
    : sim_(simulator),
      net_(network),
      topo_(topo),
      params_(params),
      id_(node_id),
      parent_cluster_(parent_cluster),
      depth_(depth),
      clock_(0.0, 0.0, 1.0, simulator.now(), initial_logical),
      parent_counts_(static_cast<std::size_t>(params.k), 0) {
  FTGCS_EXPECTS(parent_cluster >= 0);
  FTGCS_EXPECTS(depth >= 1);
}

void EchoClusterNode::on_pulse(const net::Pulse& pulse, sim::Time now) {
  if (pulse.kind != net::PulseKind::kClusterPulse) return;
  if (topo_.cluster_of(pulse.sender) != parent_cluster_) return;
  const int member = topo_.index_in_cluster(pulse.sender);
  const int wave = ++parent_counts_[member];
  if (wave <= wave_fired_) return;  // stale (e.g. replayed) pulses
  if (++wave_hits_[wave] == params_.f + 1) {
    fire_wave(wave, now);
  }
}

void EchoClusterNode::fire_wave(int wave, sim::Time now) {
  wave_fired_ = wave;
  wave_hits_.erase(wave_hits_.begin(), wave_hits_.upper_bound(wave));
  // Root members pulse at logical (w−1)·T + τ1; each hop adds an expected
  // d − U/2 of transit.
  const double anchor = (wave - 1) * params_.T + params_.tau1 +
                        depth_ * (params_.d - params_.U / 2.0);
  clock_.jump(now, anchor);
  net::Pulse echo;
  echo.sender = id_;
  echo.kind = net::PulseKind::kClusterPulse;
  net_.broadcast(id_, echo);
}

ClusterTreeSystem::ClusterTreeSystem(net::Graph cluster_graph, Config config)
    : topo_(std::move(cluster_graph), config.params.k),
      config_(std::move(config)),
      root_sync_(core::ClusterSyncConfig::from(config_.params)) {
  const net::Graph& cg = topo_.cluster_graph();
  cluster_parent_ = cg.bfs_tree(config_.root_cluster);
  cluster_depth_ = cg.bfs_distances(config_.root_cluster);

  sim::Rng master(config_.seed);
  auto delays = config_.delay_model
                    ? std::move(config_.delay_model)
                    : std::make_unique<net::UniformDelay>(config_.params.d,
                                                          config_.params.U);
  network_ = std::make_unique<net::Network>(sim_, &topo_.adjacency(),
                                            std::move(delays), master.fork(1));

  root_members_.resize(topo_.num_nodes());
  echo_members_.resize(topo_.num_nodes());
  for (int id = 0; id < topo_.num_nodes(); ++id) {
    const auto& specs = config_.fault_plan.specs();
    const auto it = std::find_if(
        specs.begin(), specs.end(),
        [id](const byz::FaultSpec& s) { return s.node == id; });
    if (it != specs.end()) {
      byz::AttackContext ctx;
      ctx.self = id;
      ctx.cluster = topo_.cluster_of(id);
      ctx.index_in_cluster = topo_.index_in_cluster(id);
      ctx.sim = &sim_;
      ctx.net = network_.get();
      ctx.topo = &topo_;
      ctx.params = &config_.params;
      ctx.rng = master.fork(1000 + static_cast<std::uint64_t>(id));
      byz_nodes_.push_back(std::make_unique<byz::ByzantineNode>(
          std::move(ctx), byz::make_strategy(it->kind, it->param)));
      network_->register_handler(id, byz_nodes_.back().get());
      continue;
    }

    const int cluster = topo_.cluster_of(id);
    const int start_round =
        config_.cluster_round_offsets.empty()
            ? 1
            : config_.cluster_round_offsets[cluster] + 1;
    if (cluster == config_.root_cluster) {
      root_members_[id] = std::make_unique<core::ClusterSyncEngine>(
          sim_, root_sync_, core::ClusterSyncMode::kActive, start_round, 1.0,
          master.fork(2000 + static_cast<std::uint64_t>(id)));
      auto* engine = root_members_[id].get();
      engine->set_own_index(topo_.index_in_cluster(id));
      root_hooks_.push_back(
          std::make_unique<core::PulseBroadcaster>(*network_, id));
      engine->set_hooks(root_hooks_.back().get());
      root_sinks_.push_back(std::make_unique<core::ClusterMemberSink>(
          topo_, config_.root_cluster, *engine));
      network_->register_handler(id, root_sinks_.back().get());
    } else {
      echo_members_[id] = std::make_unique<EchoClusterNode>(
          sim_, *network_, topo_, config_.params, id,
          cluster_parent_[cluster], cluster_depth_[cluster],
          (start_round - 1) * config_.params.T);
      network_->register_handler(id, echo_members_[id].get());
    }
  }

  drift_ = config_.drift_model
               ? std::move(config_.drift_model)
               : std::make_unique<clocks::ConstantDrift>(
                     config_.params.rho, config_.seed ^ 0x17eeULL,
                     /*spread=*/true);
}

void ClusterTreeSystem::start() {
  std::vector<clocks::RateSink> sinks;
  sinks.reserve(topo_.num_nodes());
  for (int id = 0; id < topo_.num_nodes(); ++id) {
    if (root_members_[id]) {
      auto* raw = root_members_[id].get();
      sinks.push_back([raw](sim::Time now, double rate) {
        raw->set_hardware_rate(now, rate);
      });
    } else if (echo_members_[id]) {
      auto* raw = echo_members_[id].get();
      sinks.push_back([raw](sim::Time now, double rate) {
        raw->set_hardware_rate(now, rate);
      });
    } else {
      sinks.push_back([](sim::Time, double) {});
    }
  }
  drift_->install(sim_, std::move(sinks));

  for (auto& member : root_members_) {
    if (member) member->start();
  }
  for (auto& byz_node : byz_nodes_) {
    byz_node->start();
  }
}

bool ClusterTreeSystem::is_correct(int node) const {
  return root_members_[node] != nullptr || echo_members_[node] != nullptr;
}

double ClusterTreeSystem::node_logical(int id) const {
  if (root_members_[id]) {
    return root_members_[id]->clock().read(sim_.now());
  }
  FTGCS_EXPECTS(echo_members_[id] != nullptr);
  return echo_members_[id]->logical(sim_.now());
}

std::optional<double> ClusterTreeSystem::cluster_clock(int cluster) const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (int member : topo_.members(cluster)) {
    if (!is_correct(member)) continue;
    const double value = node_logical(member);
    lo = std::min(lo, value);
    hi = std::max(hi, value);
  }
  if (hi < lo) return std::nullopt;
  return (lo + hi) / 2.0;
}

double ClusterTreeSystem::cluster_local_skew() const {
  double worst = 0.0;
  const net::Graph& g = topo_.cluster_graph();
  for (int b = 0; b < topo_.num_clusters(); ++b) {
    const auto lb = cluster_clock(b);
    if (!lb) continue;
    for (int c : g.neighbors(b)) {
      if (c < b) continue;
      const auto lc = cluster_clock(c);
      if (!lc) continue;
      worst = std::max(worst, std::abs(*lb - *lc));
    }
  }
  return worst;
}

double ClusterTreeSystem::cluster_global_skew() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (int c = 0; c < topo_.num_clusters(); ++c) {
    const auto value = cluster_clock(c);
    if (!value) continue;
    lo = std::min(lo, *value);
    hi = std::max(hi, *value);
  }
  return hi >= lo ? hi - lo : 0.0;
}

std::uint64_t ClusterTreeSystem::total_violations() const {
  std::uint64_t total = 0;
  for (const auto& member : root_members_) {
    if (member) total += member->violations();
  }
  return total;
}

}  // namespace ftgcs::baselines
