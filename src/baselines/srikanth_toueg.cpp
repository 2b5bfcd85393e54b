#include "baselines/srikanth_toueg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "net/graph.h"
#include "support/assert.h"

namespace ftgcs::baselines {

SrikanthTouegNode::SrikanthTouegNode(sim::Simulator& simulator,
                                     net::Network& network,
                                     const Config& cfg, int node_id)
    : sim_(simulator),
      net_(network),
      cfg_(cfg),
      id_(node_id),
      hardware_(simulator.now(), 0.0, 1.0),
      clock_(0.0, 0.0, 1.0, simulator.now(), 0.0) {
  FTGCS_EXPECTS(cfg.n > 3 * cfg.f);
  FTGCS_EXPECTS(cfg.period > 0.0);
  self_ = simulator.register_sink(this);
}

void SrikanthTouegNode::start() {
  next_timeout_ = cfg_.period;
  schedule_timeout();
}

void SrikanthTouegNode::schedule_timeout() {
  if (timeout_event_) sim_.cancel(timeout_event_);
  const sim::Time at = hardware_.when_reaches(next_timeout_, sim_.now());
  timeout_event_ = sim_.post_at(at, sim::EventKind::kTimer, self_, {});
}

void SrikanthTouegNode::on_event(sim::EventKind kind,
                                 const sim::EventPayload& /*payload*/,
                                 sim::Time /*now*/) {
  FTGCS_ASSERT(kind == sim::EventKind::kTimer);
  timeout_event_ = sim::EventId{};
  propose(round_ + 1);
}

void SrikanthTouegNode::propose(int round) {
  if (round <= proposed_) return;
  proposed_ = round;
  net::Pulse pulse;
  pulse.sender = id_;
  pulse.kind = net::PulseKind::kPropose;
  pulse.level = round;
  net_.broadcast(id_, pulse);
}

void SrikanthTouegNode::on_pulse(const net::Pulse& pulse, sim::Time now) {
  if (pulse.kind != net::PulseKind::kPropose) return;
  const int round = pulse.level;
  if (round <= round_) return;  // stale round
  auto& proposers = proposals_[round];
  proposers.insert(pulse.sender);
  const auto count = static_cast<int>(proposers.size());
  // Pull: f+1 proposals guarantee one correct proposer — join early.
  if (count >= cfg_.f + 1) {
    propose(round);
  }
  // Fire: n−f proposals guarantee all correct nodes will see f+1 soon.
  if (count >= cfg_.n - cfg_.f) {
    fire(round, now);
  }
}

void SrikanthTouegNode::fire(int round, sim::Time now) {
  round_ = round;
  last_fire_ = now;
  clock_.jump(now, round * cfg_.period);
  proposals_.erase(proposals_.begin(), proposals_.upper_bound(round));
  next_timeout_ = hardware_.read(now) + cfg_.period;
  schedule_timeout();
}

void SrikanthTouegNode::set_hardware_rate(sim::Time now, double rate) {
  hardware_.set_rate(now, rate);
  clock_.set_hardware_rate(now, rate);
  if (timeout_event_) schedule_timeout();
}

SrikanthTouegSystem::SrikanthTouegSystem(Config config)
    : config_(std::move(config)), clique_(net::Graph::clique(config_.n)) {
  FTGCS_EXPECTS(config_.n > 3 * config_.f);
  FTGCS_EXPECTS(config_.silent_faults <= config_.f);

  sim::Rng master(config_.seed);
  auto delays = config_.delay_model
                    ? std::move(config_.delay_model)
                    : std::make_unique<net::UniformDelay>(config_.d,
                                                          config_.U);
  network_ = std::make_unique<net::Network>(sim_, &clique_.adjacency(),
                                            std::move(delays), master.fork(1));

  SrikanthTouegNode::Config node_cfg;
  node_cfg.n = config_.n;
  node_cfg.f = config_.f;
  node_cfg.period = config_.period;

  nodes_.resize(config_.n);
  for (int id = 0; id < config_.n; ++id) {
    if (id < config_.silent_faults) {
      network_->register_null_handler(id);
      continue;
    }
    nodes_[id] =
        std::make_unique<SrikanthTouegNode>(sim_, *network_, node_cfg, id);
    network_->register_handler(id, nodes_[id].get());
  }

  drift_ = config_.drift_model
               ? std::move(config_.drift_model)
               : std::make_unique<clocks::ConstantDrift>(
                     config_.rho, config_.seed ^ 0x57ULL, /*spread=*/true);
}

void SrikanthTouegSystem::start() {
  std::vector<clocks::RateSink> sinks;
  sinks.reserve(nodes_.size());
  for (auto& node : nodes_) {
    if (node) {
      SrikanthTouegNode* raw = node.get();
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
}

double SrikanthTouegSystem::skew() const {
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

double SrikanthTouegSystem::pulse_spread() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& node : nodes_) {
    if (!node) continue;
    lo = std::min(lo, node->last_fire_time());
    hi = std::max(hi, node->last_fire_time());
  }
  return hi >= lo ? hi - lo : 0.0;
}

int SrikanthTouegSystem::min_round() const {
  int lowest = std::numeric_limits<int>::max();
  for (const auto& node : nodes_) {
    if (node) lowest = std::min(lowest, node->round());
  }
  return lowest;
}

}  // namespace ftgcs::baselines
