#include "gcs/gcs_system.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/assert.h"

namespace ftgcs::gcs {

GcsSystem::GcsSystem(net::Graph graph, Config config)
    : graph_(std::move(graph)),
      config_(std::move(config)) {
  self_ = sim_.register_sink(this);
  sim::Rng master(config_.seed);
  auto delays = config_.delay_model
                    ? std::move(config_.delay_model)
                    : std::make_unique<net::UniformDelay>(config_.params.d,
                                                          config_.params.U);
  network_ = std::make_unique<net::Network>(sim_, &graph_.adjacency(),
                                            std::move(delays), master.fork(1));

  nodes_.resize(graph_.num_vertices());
  for (int id = 0; id < graph_.num_vertices(); ++id) {
    const bool faulty =
        std::find(config_.pump_nodes.begin(), config_.pump_nodes.end(), id) !=
        config_.pump_nodes.end();
    if (faulty) {
      network_->register_null_handler(id);
      continue;
    }
    nodes_[id] = std::make_unique<GcsNode>(sim_, *network_, config_.params,
                                           id, graph_.neighbors(id));
    network_->register_handler(id, nodes_[id].get());
  }

  drift_ = config_.drift_model
               ? std::move(config_.drift_model)
               : std::make_unique<clocks::ConstantDrift>(
                     config_.params.rho, config_.seed ^ 0x60d5ULL,
                     /*spread=*/true);
}

void GcsSystem::start() {
  std::vector<clocks::RateSink> sinks;
  sinks.reserve(nodes_.size());
  for (auto& node : nodes_) {
    if (node) {
      GcsNode* raw = node.get();
      sinks.push_back([raw](sim::Time now, double rate) {
        raw->set_hardware_rate(now, rate);
      });
    } else {
      sinks.push_back([](sim::Time, double) {});
    }
  }
  drift_->install(sim_, std::move(sinks));

  for (auto& node : nodes_) {
    if (node) node->start();
  }
  for (int pump : config_.pump_nodes) {
    pump_tick(pump);
  }
}

void GcsSystem::pump_tick(int node) {
  // The faulty node impersonates a correct node's share schedule but lies
  // directionally: lower-id neighbors see a clock that runs slow, higher-id
  // neighbors one that runs fast. The divergence grows linearly in time —
  // a real oscillator could do this with a sub-ρ rate offset, so no
  // correct neighbor can prove misbehaviour (paper §1).
  const sim::Time now = sim_.now();
  const double honest = now;  // nominal value: rate-1 clock
  const double offset = config_.pump_rate * now;
  for (int to : graph_.neighbors(node)) {
    net::Pulse pulse;
    pulse.sender = node;
    pulse.kind = net::PulseKind::kShare;
    pulse.value = to < node ? honest - offset : honest + offset;
    network_->unicast(node, to, pulse);
  }
  sim::EventPayload payload;
  payload.a = node;
  sim_.post_after(config_.params.broadcast_period, sim::EventKind::kTimer,
                  self_, payload);
}

void GcsSystem::on_event(sim::EventKind kind,
                         const sim::EventPayload& payload, sim::Time /*now*/) {
  FTGCS_ASSERT(kind == sim::EventKind::kTimer);
  pump_tick(payload.a);
}

double GcsSystem::node_logical(int id) const {
  FTGCS_EXPECTS(nodes_[id] != nullptr);
  return nodes_[id]->logical(sim_.now());
}

double GcsSystem::local_skew() const {
  double worst = 0.0;
  for (int v = 0; v < graph_.num_vertices(); ++v) {
    if (!nodes_[v]) continue;
    for (int w : graph_.neighbors(v)) {
      if (w < v || !nodes_[w]) continue;
      worst = std::max(worst, std::abs(nodes_[v]->logical(sim_.now()) -
                                       nodes_[w]->logical(sim_.now())));
    }
  }
  return worst;
}

double GcsSystem::global_skew() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& node : nodes_) {
    if (!node) continue;
    const double value = node->logical(sim_.now());
    lo = std::min(lo, value);
    hi = std::max(hi, value);
  }
  return hi >= lo ? hi - lo : 0.0;
}

}  // namespace ftgcs::gcs
