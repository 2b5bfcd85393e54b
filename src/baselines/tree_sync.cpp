#include "baselines/tree_sync.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/assert.h"

namespace ftgcs::baselines {

TreeSyncSystem::TreeSyncSystem(net::Graph graph, Config config)
    : graph_(std::move(graph)), config_(std::move(config)) {
  FTGCS_EXPECTS(config_.share_period > 0.0);
  FTGCS_EXPECTS(config_.root >= 0 && config_.root < graph_.num_vertices());
  FTGCS_EXPECTS(config_.initial_logical.empty() ||
                static_cast<int>(config_.initial_logical.size()) ==
                    graph_.num_vertices());

  parent_ = graph_.bfs_tree(config_.root);

  sim::Rng master(config_.seed);
  auto delays = config_.delay_model
                    ? std::move(config_.delay_model)
                    : std::make_unique<net::UniformDelay>(config_.d,
                                                          config_.U);
  network_ = std::make_unique<net::Network>(sim_, &graph_.adjacency(),
                                            std::move(delays), master.fork(1));
  self_ = sim_.register_sink(this);

  nodes_.reserve(graph_.num_vertices());
  for (int id = 0; id < graph_.num_vertices(); ++id) {
    const double l0 =
        config_.initial_logical.empty() ? 0.0 : config_.initial_logical[id];
    nodes_.push_back(std::make_unique<Node>(*this, id, sim_.now(), l0));
    network_->register_handler(id, nodes_.back().get());
  }

  drift_ = config_.drift_model
               ? std::move(config_.drift_model)
               : std::make_unique<clocks::ConstantDrift>(
                     config_.rho, config_.seed ^ 0x7ee5ULL, /*spread=*/true);
}

void TreeSyncSystem::start() {
  std::vector<clocks::RateSink> sinks;
  sinks.reserve(nodes_.size());
  for (auto& node : nodes_) {
    Node* raw = node.get();
    sinks.push_back([raw](sim::Time now, double rate) {
      raw->hardware.set_rate(now, rate);
      raw->logical.set_hardware_rate(now, rate);
    });
  }
  drift_->install(sim_, std::move(sinks));

  // Only the root initiates sync pulses; everyone else echoes.
  share_tick(config_.root);
}

void TreeSyncSystem::share_tick(int node) {
  net::Pulse pulse;
  pulse.sender = node;
  pulse.kind = net::PulseKind::kShare;
  pulse.value = nodes_[node]->logical.read(sim_.now());
  network_->broadcast(node, pulse);
  sim::EventPayload tick;
  tick.a = node;
  sim_.post_after(config_.share_period, sim::EventKind::kTimer, self_, tick);
}

void TreeSyncSystem::on_event(sim::EventKind kind,
                              const sim::EventPayload& payload,
                              sim::Time /*now*/) {
  FTGCS_ASSERT(kind == sim::EventKind::kTimer);
  share_tick(payload.a);
}

void TreeSyncSystem::on_pulse(int node, const net::Pulse& pulse,
                              sim::Time now) {
  if (pulse.kind != net::PulseKind::kShare) return;
  if (pulse.sender != parent_[node]) return;  // slaves follow parents only
  // Step to the pulse value plus the expected one-hop delay, then echo the
  // (re-anchored) pulse towards the children immediately.
  const double estimate = pulse.value + (config_.d - config_.U / 2.0);
  nodes_[node]->logical.jump(now, estimate);
  net::Pulse echo;
  echo.sender = node;
  echo.kind = net::PulseKind::kShare;
  echo.value = estimate;
  network_->broadcast(node, echo);
}

double TreeSyncSystem::node_logical(int id) const {
  return nodes_[id]->logical.read(sim_.now());
}

double TreeSyncSystem::local_skew() const {
  double worst = 0.0;
  for (int v = 0; v < graph_.num_vertices(); ++v) {
    for (int w : graph_.neighbors(v)) {
      if (w < v) continue;
      worst = std::max(worst,
                       std::abs(node_logical(v) - node_logical(w)));
    }
  }
  return worst;
}

double TreeSyncSystem::global_skew() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (int v = 0; v < graph_.num_vertices(); ++v) {
    const double value = node_logical(v);
    lo = std::min(lo, value);
    hi = std::max(hi, value);
  }
  return hi - lo;
}

}  // namespace ftgcs::baselines
