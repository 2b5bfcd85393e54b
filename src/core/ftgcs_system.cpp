#include "core/ftgcs_system.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"

namespace ftgcs::core {

FtGcsSystem::FtGcsSystem(net::Graph cluster_graph, Config config)
    : owned_topo_(config.shared_topo != nullptr
                      ? nullptr
                      : std::make_unique<net::AugmentedTopology>(
                            std::move(cluster_graph), config.params.k)),
      topo_(config.shared_topo != nullptr ? *config.shared_topo
                                          : *owned_topo_),
      config_(std::move(config)),
      constants_(config_.params, topo_) {
  FTGCS_EXPECTS(config_.params.feasible());
  FTGCS_EXPECTS(config_.fault_plan.max_faults_per_cluster(topo_) <=
                topo_.cluster_size());
  const ShardView& shard = config_.shard;
  if (shard.active()) {
    FTGCS_EXPECTS(shard.shard >= 0 && shard.shard < shard.num_shards);
    FTGCS_EXPECTS(shard.cluster_owner != nullptr && shard.router != nullptr);
  }

  sim::Rng master(config_.seed);

  auto delays = config_.delay_model
                    ? std::move(config_.delay_model)
                    : std::make_unique<net::UniformDelay>(config_.params.d,
                                                          config_.params.U);
  // A shard's network keeps delay streams only for the senders it owns
  // and routes deliveries to the rest through the shard router.
  net::ShardView net_shard;
  if (shard.active()) {
    remote_flags_.assign(static_cast<std::size_t>(topo_.num_nodes()), 0);
    for (int id = 0; id < topo_.num_nodes(); ++id) {
      remote_flags_[static_cast<std::size_t>(id)] = owns(id) ? 0 : 1;
    }
    net_shard.router = shard.router;
    net_shard.remote = remote_flags_.data();
  }
  // Borrowed adjacency: the topology outlives the network (member order),
  // so no per-system copy of the O(E) neighbor lists.
  network_ = std::make_unique<net::Network>(sim_, &topo_.adjacency(),
                                            std::move(delays), master.fork(1),
                                            net_shard);
  network_->set_trace(config_.trace_sink);
  self_ = sim_.register_sink(this);

  nodes_.resize(topo_.num_nodes());
  byz_nodes_.reserve(config_.fault_plan.size());

  // Instantiate nodes: Byzantine where the plan says so, correct otherwise.
  // A sharded system only instantiates the nodes it owns, but forks the
  // master RNG for EVERY id — fork() advances the parent stream, so the
  // skipped forks keep every owned node's stream identical to the
  // unsharded construction (partition-invariant executions).
  for (int id = 0; id < topo_.num_nodes(); ++id) {
    const auto& specs = config_.fault_plan.specs();
    const auto it = std::find_if(
        specs.begin(), specs.end(),
        [id](const byz::FaultSpec& s) { return s.node == id; });
    sim::Rng node_rng = master.fork((it != specs.end() ? 1000 : 2000) +
                                    static_cast<std::uint64_t>(id));
    if (!owns(id)) continue;
    if (it != specs.end()) {
      byz::AttackContext ctx;
      ctx.self = id;
      ctx.cluster = topo_.cluster_of(id);
      ctx.index_in_cluster = topo_.index_in_cluster(id);
      ctx.sim = &sim_;
      ctx.net = network_.get();
      ctx.topo = &topo_;
      ctx.params = &config_.params;
      ctx.rng = node_rng;
      byz_nodes_.push_back(std::make_unique<byz::ByzantineNode>(
          std::move(ctx), byz::make_strategy(it->kind, it->param)));
      network_->register_handler(id, byz_nodes_.back().get());
    } else {
      FtGcsNode::Options options;
      options.enable_global_module = config_.enable_global_module;
      const auto& offsets = config_.cluster_round_offsets;
      const int cluster = topo_.cluster_of(id);
      if (!offsets.empty()) {
        FTGCS_EXPECTS(static_cast<int>(offsets.size()) ==
                      topo_.num_clusters());
        options.start_round = offsets[cluster] + 1;
        if (config_.replicas_know_offsets) {
          for (int adjacent : topo_.cluster_neighbors(cluster)) {
            options.replica_start_rounds.push_back(offsets[adjacent] + 1);
          }
        }
      }
      for (const auto& [b, c] : config_.initially_inactive_edges) {
        if (cluster == b) options.initially_inactive.push_back(c);
        if (cluster == c) options.initially_inactive.push_back(b);
      }
      if (!config_.edge_weights.empty()) {
        for (int adjacent : topo_.cluster_neighbors(cluster)) {
          double weight = 1.0;
          for (const auto& [b, c, w] : config_.edge_weights) {
            if ((b == cluster && c == adjacent) ||
                (c == cluster && b == adjacent)) {
              weight = w;
            }
          }
          options.edge_weights.push_back(weight);
        }
      }
      nodes_[id] = std::make_unique<FtGcsNode>(
          sim_, *network_, topo_, constants_, id, node_rng, options);
      ++num_correct_;
    }
  }

  // Columnar dispatch: the table adopts every correct node's receive
  // lanes and estimator, the network hands it every delivery to a correct
  // node, and the simulator drains pure-receive pulse runs in batches.
  table_.build(topo_, nodes_, sim_.batch_scratch());
  for (auto& node : nodes_) {
    if (node) node->attach_table(&table_);
  }
  network_->set_cluster_dispatch(&table_, table_.managed_flags());
  sim_.set_batch_channel(network_->sink_id(), sim::EventKind::kPulse,
                         &NodeTable::pure_pulse, &table_);
  // Level deliveries proven dead at send time skip the queue (see
  // core/node_table.h) and are only counted. A traced run records every
  // delivery, so it elides nothing.
  table_.set_level_model(config_.params.d, config_.params.U,
                         config_.params.rho);
  if (config_.trace_sink == nullptr) network_->enable_level_elision();

  // Give each cluster's Byzantine nodes a reference observation of a
  // correct member's round schedule (omniscient adversary).
  for (int c = 0; c < topo_.num_clusters(); ++c) {
    std::vector<byz::ByzantineNode*> watchers;
    for (const auto& byz_node : byz_nodes_) {
      if (topo_.cluster_of(byz_node->id()) == c) {
        watchers.push_back(byz_node.get());
      }
    }
    if (watchers.empty()) continue;
    FtGcsNode* reference = nullptr;
    for (int member : topo_.members(c)) {
      if (nodes_[member]) {
        reference = nodes_[member].get();
        break;
      }
    }
    if (reference == nullptr) continue;  // fully faulty cluster
    reference->on_round_observed =
        [watchers](int round, sim::Time round_start,
                   sim::Time predicted_pulse, double logical_start) {
          const byz::RoundInfo info{round, round_start, predicted_pulse,
                                    logical_start};
          for (byz::ByzantineNode* watcher : watchers) {
            watcher->on_reference_round(info);
          }
        };
  }

  drift_ = config_.drift_model
               ? std::move(config_.drift_model)
               : std::make_unique<clocks::ConstantDrift>(
                     config_.params.rho, config_.seed ^ 0x5eedULL,
                     /*spread=*/true);
}

void FtGcsSystem::start() {
  FTGCS_EXPECTS(!started_);
  started_ = true;

  // Drift first, so every clock carries its initial rate before round 1.
  std::vector<clocks::RateSink> sinks;
  sinks.reserve(topo_.num_nodes());
  for (int id = 0; id < topo_.num_nodes(); ++id) {
    if (nodes_[id]) {
      FtGcsNode* raw = nodes_[id].get();
      // FtGcsNode::set_hardware_rate rejects a rate outside [1, 1+ρ] with
      // a contract failure: level elision relies on h ≥ 1.
      sinks.push_back([raw](sim::Time now, double rate) {
        raw->set_hardware_rate(now, rate);
      });
    } else {
      sinks.push_back([](sim::Time, double) {});  // adversary self-governs
    }
  }
  drift_->install(sim_, std::move(sinks));

  for (auto& node : nodes_) {
    if (node) node->start();
  }
  for (auto& byz_node : byz_nodes_) {
    byz_node->start();
  }
}

FtGcsNode& FtGcsSystem::node(int id) {
  FTGCS_EXPECTS(id >= 0 && id < topo_.num_nodes());
  FTGCS_EXPECTS(nodes_[id] != nullptr);
  return *nodes_[id];
}

const FtGcsNode& FtGcsSystem::node(int id) const {
  FTGCS_EXPECTS(id >= 0 && id < topo_.num_nodes());
  FTGCS_EXPECTS(nodes_[id] != nullptr);
  return *nodes_[id];
}

double FtGcsSystem::node_logical(int id) const {
  return node(id).logical(sim_.now());
}

std::optional<double> FtGcsSystem::cluster_clock(int cluster) const {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (int member : topo_.members(cluster)) {
    if (!nodes_[member] || nodes_[member]->crashed()) continue;
    const double value = nodes_[member]->logical(sim_.now());
    if (!any) {
      lo = hi = value;
      any = true;
    } else {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
  }
  if (!any) return std::nullopt;
  return (lo + hi) / 2.0;
}

SystemSnapshot FtGcsSystem::snapshot() const {
  SystemSnapshot snap;
  snap.at = sim_.now();
  snap.nodes.reserve(topo_.num_nodes());
  for (int id = 0; id < topo_.num_nodes(); ++id) {
    SystemSnapshot::NodeState state;
    state.id = id;
    state.cluster = topo_.cluster_of(id);
    // A crashed node is a (benign) faulty node: for the rest of the
    // system it is equivalent to removing its links (paper §1/App. A).
    state.correct = nodes_[id] != nullptr && !nodes_[id]->crashed();
    if (state.correct) {
      state.logical = nodes_[id]->logical(snap.at);
      state.gamma = nodes_[id]->gamma();
    }
    snap.nodes.push_back(state);
  }
  return snap;
}

void FtGcsSystem::snapshot_columns(SystemColumns& out) const {
  // Straight from the columnar bank: lane clock mirrors and the γ column,
  // no per-node object traffic.
  table_.snapshot_columns(sim_.now(), out);
}

void FtGcsSystem::set_edge_active(int b, int c, bool active) {
  FTGCS_EXPECTS(topo_.cluster_graph().has_edge(b, c));
  for (int member : topo_.members(b)) {
    if (nodes_[member]) nodes_[member]->set_edge_active(c, active);
  }
  for (int member : topo_.members(c)) {
    if (nodes_[member]) nodes_[member]->set_edge_active(b, active);
  }
}

void FtGcsSystem::schedule_edge_toggle(int b, int c, bool active,
                                       sim::Time at) {
  sim::EventPayload payload;
  payload.a = b;
  payload.b = c;
  payload.d = active ? 1 : 0;
  sim_.post_at(at, sim::EventKind::kTimer, self_, payload);
}

void FtGcsSystem::on_event(sim::EventKind kind,
                           const sim::EventPayload& payload,
                           sim::Time /*now*/) {
  FTGCS_ASSERT(kind == sim::EventKind::kTimer);
  ++toggles_fired_;
  set_edge_active(payload.a, payload.b, payload.d != 0);
}

std::uint64_t FtGcsSystem::total_violations() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (node && !node->crashed()) total += node->violations();
  }
  return total;
}

}  // namespace ftgcs::core
