#include "gcs/gcs_node.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"

namespace ftgcs::gcs {

GcsParams GcsParams::derive(double rho, double d, double U, double mu,
                            double broadcast_period) {
  GcsParams p;
  p.rho = rho;
  p.d = d;
  p.U = U;
  p.mu = mu;
  p.broadcast_period = broadcast_period;
  p.slack = 2.0 * p.estimate_error();
  p.kappa = 3.0 * p.slack;
  return p;
}

GcsParams GcsParams::derive_oblivious(double rho, double d, double U,
                                      double mu, double broadcast_period,
                                      int diameter) {
  GcsParams p = derive(rho, d, U, mu, broadcast_period);
  p.rule = Rule::kOblivious;
  p.blocking = std::sqrt(static_cast<double>(diameter)) * p.kappa;
  return p;
}

double GcsParams::estimate_error() const {
  const double theta_hat = (1.0 + rho) * (1.0 + mu);
  return U / 2.0 + (theta_hat - 1.0) * (d + broadcast_period);
}

GcsNode::GcsNode(sim::Simulator& simulator, net::Network& network,
                 const GcsParams& params, int node_id,
                 const std::vector<int>& neighbors)
    : sim_(simulator),
      net_(network),
      params_(params),
      id_(node_id),
      neighbors_(neighbors),
      hardware_(simulator.now(), 0.0, 1.0),
      // ϕ = 0: the plain GCS has no amortization layer, only γ.
      clock_(0.0, params.mu, 1.0, simulator.now(), 0.0),
      timers_(simulator, clock_, *this),
      last_share_(neighbors.size()) {
  FTGCS_EXPECTS(params.broadcast_period > 0.0);
  FTGCS_EXPECTS(params.kappa > 0.0);
  estimates_buf_.reserve(neighbors.size());
}

void GcsNode::start() {
  broadcast_share(sim_.now());
  evaluate_triggers(sim_.now());
  next_tick_ = params_.broadcast_period;
  arm_next(next_tick_);
}

void GcsNode::arm_next(double logical_target) {
  timers_.arm(1, logical_target);
}

void GcsNode::on_logical_timer(clocks::LogicalTimerSet::Key /*key*/) {
  const sim::Time now = sim_.now();
  broadcast_share(now);
  evaluate_triggers(now);
  next_tick_ += params_.broadcast_period;
  arm_next(next_tick_);
}

void GcsNode::broadcast_share(sim::Time now) {
  net::Pulse pulse;
  pulse.sender = id_;
  pulse.kind = net::PulseKind::kShare;
  pulse.value = clock_.read(now);
  net_.broadcast(id_, pulse);
}

void GcsNode::on_pulse(const net::Pulse& pulse, sim::Time now) {
  if (pulse.kind != net::PulseKind::kShare) return;
  if (pulse.sender == id_) return;  // loopback carries no information
  const auto it = std::find(neighbors_.begin(), neighbors_.end(),
                            pulse.sender);
  if (it == neighbors_.end()) return;
  auto& slot = last_share_[static_cast<std::size_t>(it - neighbors_.begin())];
  slot.value = pulse.value;
  slot.hardware_at = hardware_.read(now);
  slot.seen = true;
  evaluate_triggers(now);
}

std::optional<double> GcsNode::estimate(int w, sim::Time now) const {
  const auto it = std::find(neighbors_.begin(), neighbors_.end(), w);
  FTGCS_EXPECTS(it != neighbors_.end());
  const auto& slot =
      last_share_[static_cast<std::size_t>(it - neighbors_.begin())];
  if (!slot.seen) return std::nullopt;
  // Advance the received timestamp by local elapsed hardware time plus the
  // expected transit delay.
  return slot.value + (params_.d - params_.U / 2.0) +
         (hardware_.read(now) - slot.hardware_at);
}

void GcsNode::evaluate_triggers(sim::Time now) {
  std::vector<double>& estimates = estimates_buf_;
  estimates.clear();
  for (int w : neighbors_) {
    const auto est = estimate(w, now);
    if (est) estimates.push_back(*est);
  }
  if (estimates.empty()) return;

  const double self = clock_.read(now);
  if (params_.rule == GcsParams::Rule::kOblivious) {
    // [15]: catch up with the maximum neighbor unless some neighbor lags
    // more than the blocking threshold B.
    const double max_est = *std::max_element(estimates.begin(),
                                             estimates.end());
    const double min_est = *std::min_element(estimates.begin(),
                                             estimates.end());
    const bool someone_ahead = max_est - self > params_.slack;
    const bool blocked = self - min_est > params_.blocking;
    clock_.set_gamma(now, someone_ahead && !blocked ? 1 : 0);
    return;
  }

  const core::TriggerView view{self, estimates};
  if (core::fast_trigger(view, params_.kappa, params_.slack)) {
    clock_.set_gamma(now, 1);
  } else if (core::slow_trigger(view, params_.kappa, params_.slack)) {
    clock_.set_gamma(now, 0);
  }
  // Neither trigger: keep the current mode (the plain GCS switches only at
  // trigger boundaries; no global-skew module in the baseline).
}

void GcsNode::set_hardware_rate(sim::Time now, double rate) {
  hardware_.set_rate(now, rate);
  clock_.set_hardware_rate(now, rate);
}

}  // namespace ftgcs::gcs
