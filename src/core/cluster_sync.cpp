#include "core/cluster_sync.h"

#include <algorithm>
#include <cstring>

#include "support/assert.h"

namespace ftgcs::core {

ClusterSyncEngine::ClusterSyncEngine(sim::Simulator& simulator,
                                     const ClusterSyncConfig& cfg,
                                     double initial_hardware_rate,
                                     sim::Rng loopback_rng)
    : sim_(simulator),
      cfg_(cfg),
      clock_(cfg.phi, cfg.mu, initial_hardware_rate, simulator.now(),
             (cfg.start_round - 1) * (cfg.tau1 + cfg.tau2 + cfg.tau3)),
      timers_(simulator, clock_, *this),
      loopback_rng_(loopback_rng) {
  self_ = simulator.register_sink(this);
  FTGCS_EXPECTS(cfg.start_round >= 1);
  FTGCS_EXPECTS(cfg.tau1 > 0.0 && cfg.tau2 > 0.0 && cfg.tau3 > 0.0);
  FTGCS_EXPECTS(cfg.phi > 0.0 && cfg.phi < 1.0);
  FTGCS_EXPECTS(cfg.k >= 2 * cfg.f + 1);  // order statistics well-defined
  FTGCS_EXPECTS(cfg.f >= 0);
  if (!cfg.active) {
    FTGCS_EXPECTS(cfg.d > 0.0 && cfg.U >= 0.0 && cfg.U <= cfg.d);
  }
  if (cfg.k <= ReceiveLane::kInlineArrivals) {
    local_lane_.arrivals = local_lane_.inline_arrivals;
    std::fill_n(local_lane_.arrivals, static_cast<std::size_t>(cfg.k),
                kUnsetArrival);
  } else {
    local_arrivals_.resize(static_cast<std::size_t>(cfg.k), kUnsetArrival);
    local_lane_.arrivals = local_arrivals_.data();
  }
  local_lane_.own_index = cfg.active ? own_index_ : -1;
  clock_.bind_mirror(&local_lane_.clock);
  offsets_buf_.reserve(static_cast<std::size_t>(cfg.k));
}

void ClusterSyncEngine::adopt_lane(ReceiveLane* lane, double* arrivals) {
  FTGCS_EXPECTS(round_ == 0);  // relocation only before the first round
  FTGCS_EXPECTS(lane != nullptr);
  FTGCS_EXPECTS(arrivals != nullptr ||
                cfg_.k <= ReceiveLane::kInlineArrivals);
  *lane = *lane_;
  // Small clusters live in the lane's own second cache line; larger ones
  // in the caller-provided external bank.
  double* dst = arrivals != nullptr ? arrivals : lane->inline_arrivals;
  std::memcpy(dst, lane_->arrivals,
              static_cast<std::size_t>(cfg_.k) * sizeof(double));
  lane->arrivals = dst;
  lane_ = lane;
  clock_.bind_mirror(&lane->clock);
}

void ClusterSyncEngine::start() {
  FTGCS_EXPECTS(round_ == 0);
  begin_round(cfg_.start_round);
}

void ClusterSyncEngine::halt() {
  timers_.cancel(kPulseTimer);
  timers_.cancel(kPhaseTwoEndTimer);
  timers_.cancel(kRoundEndTimer);
  sim_.cancel(pending_loopback_);
  pending_loopback_ = sim::EventId{};
  lane_->listening = 0;
}

void ClusterSyncEngine::begin_round(int r) {
  round_ = r;
  round_start_logical_ = (r - 1) * round_length();
  lane_->listening = 1;
  std::fill_n(lane_->arrivals, static_cast<std::size_t>(cfg_.k),
              kUnsetArrival);
  lane_->own_arrival = kUnsetArrival;

  // Algorithm 1 line 3: δ_v ← 1 for phases 1 and 2.
  clock_.set_delta(sim_.now(), 1.0);

  if (on_round_start) on_round_start(r);

  const double base = round_start_logical_;
  timers_.arm(kPulseTimer, base + cfg_.tau1);
  timers_.arm(kPhaseTwoEndTimer, base + cfg_.tau1 + cfg_.tau2);
  timers_.arm(kRoundEndTimer, base + round_length());
}

void ClusterSyncEngine::on_logical_timer(clocks::LogicalTimerSet::Key key) {
  switch (key) {
    case kPulseTimer:
      pulse_instant(sim_.now());
      break;
    case kPhaseTwoEndTimer:
      end_phase_two(sim_.now());
      break;
    case kRoundEndTimer:
      begin_round(round_ + 1);
      break;
    default:
      FTGCS_ASSERT(false && "unknown timer key");
  }
}

void ClusterSyncEngine::on_event(sim::EventKind kind,
                                 const sim::EventPayload& payload,
                                 sim::Time now) {
  // Corollary 3.5: the passive observer's own simulated pulse arrives.
  FTGCS_ASSERT(kind == sim::EventKind::kPulse);
  if (round_ == payload.a && lane_->listening) {
    lane_->own_arrival = clock_.read(now);
  } else {
    ++lane_->dropped;
  }
}

void ClusterSyncEngine::pulse_instant(sim::Time now) {
  if (on_pulse) on_pulse(round_, now);
  if (!cfg_.active) {
    // Corollary 3.5: the passive observer simulates its own pulse; the
    // loopback delay is drawn from the same physical interval [d−U, d].
    const sim::Duration delay =
        loopback_rng_.uniform(cfg_.d - cfg_.U, cfg_.d);
    sim::EventPayload payload;
    payload.a = round_;
    pending_loopback_ =
        sim_.post_after(delay, sim::EventKind::kPulse, self_, payload);
  }
  // Active mode: the owner broadcasts in on_pulse; the physical loopback
  // delivers to on_member_pulse(own_index_), which records own_arrival.
}

void ClusterSyncEngine::on_member_pulse(int member_index, sim::Time now) {
  FTGCS_EXPECTS(member_index >= 0 && member_index < cfg_.k);
  // Before start() the lane is not listening, so pre-round pulses count as
  // dropped exactly as they always did.
  lane_receive(*lane_, member_index, now);
}

double ClusterSyncEngine::compute_correction() {
  // Pulses that did not arrive are clamped to the end of the collection
  // window — the latest moment they could still legitimately arrive.
  const double window_end =
      round_start_logical_ + cfg_.tau1 + cfg_.tau2;
  const double own_slot = lane_->own_arrival;
  const double own = own_slot == own_slot ? own_slot : window_end;

  offsets_buf_.clear();
  for (int i = 0; i < cfg_.k; ++i) {
    const double slot = lane_->arrivals[i];
    offsets_buf_.push_back((slot == slot ? slot : window_end) - own);
  }
  std::sort(offsets_buf_.begin(), offsets_buf_.end());
  // ∆_v(r) = (S^(f+1) + S^(k−f)) / 2, 1-based order statistics.
  const auto f = static_cast<std::size_t>(cfg_.f);
  const double lo = offsets_buf_[f];
  const double hi = offsets_buf_[offsets_buf_.size() - 1 - f];
  return (lo + hi) / 2.0;
}

void ClusterSyncEngine::end_phase_two(sim::Time now) {
  lane_->listening = 0;
  int received = 0;
  for (int i = 0; i < cfg_.k; ++i) {
    const double slot = lane_->arrivals[i];
    if (slot == slot) ++received;
  }
  if (received < cfg_.k - cfg_.f) ++starved_rounds_;
  const double raw = compute_correction();
  last_correction_ = raw;

  // Proper execution (Def. B.3) requires |∆| ≤ ϕ·τ3; clamping keeps
  // δ_v ∈ [0, 2/(1−ϕ)] (Lemma B.4) under over-budget attacks.
  const double limit = cfg_.phi * cfg_.tau3;
  double delta_corr = raw;
  bool violated = false;
  if (delta_corr > limit) {
    delta_corr = limit;
    violated = true;
  } else if (delta_corr < -limit) {
    delta_corr = -limit;
    violated = true;
  }
  if (violated) ++violations_;

  // Algorithm 1 line 13.
  const double delta_v =
      1.0 - (1.0 + 1.0 / cfg_.phi) * delta_corr / (cfg_.tau3 + delta_corr);
  clock_.set_delta(now, delta_v);

  if (on_correction) on_correction(round_, raw, violated);
}

}  // namespace ftgcs::core
