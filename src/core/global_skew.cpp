#include "core/global_skew.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/assert.h"

namespace ftgcs::core {

MaxEstimator::MaxEstimator(sim::Simulator& simulator, const Config& cfg,
                           double initial_hardware_rate)
    : sim_(simulator),
      cfg_(cfg),
      self_(simulator.register_sink(this)),
      spacing_(cfg.d - cfg.U),
      rate_(initial_hardware_rate / (1.0 + cfg.rho)) {
  FTGCS_EXPECTS(cfg.d > 0.0);
  FTGCS_EXPECTS(cfg.U >= 0.0 && cfg.U < cfg.d);  // spacing must be positive
  FTGCS_EXPECTS(cfg.rho >= 0.0);
  FTGCS_EXPECTS(cfg.f >= 0);
}

void MaxEstimator::start() {
  FTGCS_EXPECTS(on_emit != nullptr);
  FTGCS_EXPECTS(!started_);
  started_ = true;
  schedule_next_emission(sim_.now());
  publish(sim_.now());
}

double MaxEstimator::read(sim::Time now) const {
  FTGCS_EXPECTS(now >= t0_);
  return m0_ + rate_ * (now - t0_);
}

void MaxEstimator::advance(sim::Time now) {
  m0_ = read(now);
  t0_ = now;
}

void MaxEstimator::set_hardware_rate(sim::Time now, double rate) {
  FTGCS_EXPECTS(rate > 0.0);
  advance(now);
  rate_ = rate / (1.0 + cfg_.rho);
  if (started_) schedule_next_emission(now);
  publish(now);
}

void MaxEstimator::halt() {
  halted_ = true;
  sim_.cancel(pending_emit_);
  pending_emit_ = sim::EventId{};
}

void MaxEstimator::schedule_next_emission(sim::Time now) {
  if (halted_) return;
  const double target = next_level_ * spacing_;
  const double current = read(now);
  const sim::Time fire =
      target <= current ? now : now + (target - current) / rate_;
  if (pending_emit_ && sim_.reschedule(pending_emit_, fire)) return;
  pending_emit_ = sim_.post_at(fire, sim::EventKind::kTimer, self_, {});
}

void MaxEstimator::on_event(sim::EventKind kind, const sim::EventPayload&,
                            sim::Time now) {
  FTGCS_ASSERT(kind == sim::EventKind::kTimer);
  pending_emit_ = sim::EventId{};
  emit_through(read(now));
  schedule_next_emission(now);
  publish(now);
}

void MaxEstimator::emit_through(double value) {
  while (next_level_ * spacing_ <= value) {
    on_emit(next_level_);
    ++next_level_;
  }
}

void MaxEstimator::observe_own_clock(double logical, sim::Time now) {
  advance(now);
  if (logical > m0_) {
    m0_ = logical;
    if (started_) {
      emit_through(m0_);
      schedule_next_emission(now);
    }
  }
  publish(now);
}

QuorumWindow& MaxEstimator::heard_window(int cluster) {
  QuorumWindow* window = quorum_;
  QuorumWindow* const end = quorum_ + quorum_count_;
  while (window != end && window->cluster != cluster) ++window;
  FTGCS_EXPECTS(window != end);  // a cluster with no bound window
  return *window;
}

void MaxEstimator::on_level_pulse(int cluster, int member_index,
                                  bool from_self, int level, sim::Time now) {
  // Stale, no news, or unreachable for a correct sender (levels start at
  // 1; level < 1 can only be forged and can never complete an honest
  // quorum, so it is dropped rather than tracked).
  if (from_self || level < 1 || level < next_level_ - 1) return;
  FTGCS_EXPECTS(member_index >= 0);
  const int floor = next_level_ > 1 ? next_level_ - 1 : 1;
  const int heard =
      quorum_insert(heard_window(cluster), level, member_index, floor);
  if (heard < cfg_.f + 1) return;

  // f+1 distinct members of one cluster reached level ℓ: at least one is
  // correct, and its pulse was in transit for ≥ d−U, so
  // L^max ≥ (ℓ+1)(d−U) already holds — safe to jump.
  const double candidate = (level + 1) * spacing_;
  advance(now);
  if (candidate > m0_) {
    m0_ = candidate;
    ++jumps_;
    if (started_) {
      emit_through(m0_);
      schedule_next_emission(now);
    }
  }
  publish(now);
  // No explicit prune needed: the jump advanced next_level_, so the
  // staleness floor rose and heard_mask compacts each window lazily.
}

}  // namespace ftgcs::core
