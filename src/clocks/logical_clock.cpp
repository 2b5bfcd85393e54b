#include "clocks/logical_clock.h"

#include "support/assert.h"

namespace ftgcs::clocks {

LogicalClock::LogicalClock(double phi, double mu, double hardware_rate,
                           sim::Time t0, double l0)
    : phi_(phi), mu_(mu), hrate_(hardware_rate), t0_(t0), l0_(l0) {
  FTGCS_EXPECTS(phi >= 0.0 && phi < 1.0);
  FTGCS_EXPECTS(mu >= 0.0);
  FTGCS_EXPECTS(hardware_rate > 0.0);
  rate_ = (1.0 + phi_ * delta_) * (1.0 + mu_ * gamma_) * hrate_;
}

double LogicalClock::read(sim::Time now) const {
  FTGCS_EXPECTS(now >= t0_);
  return l0_ + rate_ * (now - t0_);
}

void LogicalClock::advance(sim::Time now) {
  FTGCS_EXPECTS(now >= t0_);
  l0_ = read(now);
  t0_ = now;
}

void LogicalClock::recompute_rate(sim::Time now) {
  rate_ = (1.0 + phi_ * delta_) * (1.0 + mu_ * gamma_) * hrate_;
  if (observer_ != nullptr) observer_->on_rate_change(now);
}

void LogicalClock::set_delta(sim::Time now, double delta) {
  FTGCS_EXPECTS(delta >= 0.0);
  if (delta == delta_) return;
  advance(now);
  delta_ = delta;
  recompute_rate(now);
  publish();
}

void LogicalClock::set_gamma(sim::Time now, int gamma) {
  FTGCS_EXPECTS(gamma == 0 || gamma == 1);
  if (gamma == gamma_) return;
  advance(now);
  gamma_ = gamma;
  recompute_rate(now);
  publish();
}

void LogicalClock::set_hardware_rate(sim::Time now, double hrate) {
  FTGCS_EXPECTS(hrate > 0.0);
  if (hrate == hrate_) return;
  advance(now);
  hrate_ = hrate;
  recompute_rate(now);
  publish();
}

void LogicalClock::jump(sim::Time now, double value) {
  advance(now);
  l0_ = value;
  publish();
  if (observer_ != nullptr) observer_->on_rate_change(now);
}

sim::Time LogicalClock::when_reaches(double target, sim::Time now) const {
  const double current = read(now);
  if (target <= current) return now;  // already reached (or in the past)
  return now + (target - current) / rate_;
}

}  // namespace ftgcs::clocks
