#include "core/cluster_sync.h"

#include <algorithm>
#include <array>
#include <vector>

#include "core/params.h"
#include "support/assert.h"

namespace ftgcs::core {

ClusterSyncConfig ClusterSyncConfig::from(const Params& params) {
  ClusterSyncConfig cfg;
  cfg.tau1 = params.tau1;
  cfg.tau2 = params.tau2;
  cfg.tau3 = params.tau3;
  cfg.phi = params.phi;
  cfg.mu = params.mu;
  cfg.f = params.f;
  cfg.k = params.k;
  cfg.d = params.d;
  cfg.U = params.U;
  return cfg;
}

struct ClusterSyncEngine::OwnedLane {
  ReceiveLane lane;
  std::vector<double> arrivals;  ///< k > kInlineArrivals only
};

ClusterSyncEngine::ClusterSyncEngine(sim::Simulator& simulator,
                                     const ClusterSyncConfig& cfg,
                                     ClusterSyncMode mode, int start_round,
                                     double initial_hardware_rate,
                                     sim::Rng loopback_rng)
    : cfg_(cfg),
      clock_(cfg.phi, cfg.mu, initial_hardware_rate, simulator.now(),
             (start_round - 1) * (cfg.tau1 + cfg.tau2 + cfg.tau3)),
      timers_(simulator, clock_, *this),
      loopback_rng_(loopback_rng),
      start_round_(start_round),
      mode_(mode) {
  self_ = simulator.register_sink(this);
  FTGCS_EXPECTS(start_round >= 1);
  FTGCS_EXPECTS(cfg.tau1 > 0.0 && cfg.tau2 > 0.0 && cfg.tau3 > 0.0);
  FTGCS_EXPECTS(cfg.phi > 0.0 && cfg.phi < 1.0);
  FTGCS_EXPECTS(cfg.k >= 2 * cfg.f + 1);  // order statistics well-defined
  FTGCS_EXPECTS(cfg.f >= 0);
  if (!active()) {
    FTGCS_EXPECTS(cfg.d > 0.0 && cfg.U >= 0.0 && cfg.U <= cfg.d);
  }
}

ClusterSyncEngine::~ClusterSyncEngine() = default;

void ClusterSyncEngine::init_lane(ReceiveLane& lane, double* arrivals) {
  lane = ReceiveLane{};
  lane.arrivals = arrivals;
  std::fill_n(arrivals, static_cast<std::size_t>(cfg_.k), kUnsetArrival);
  lane.own_index = active() ? own_index_ : -1;
  lane_ = &lane;
  clock_.bind_mirror(&lane.clock);
}

void ClusterSyncEngine::allocate_lane() {
  owned_lane_ = std::make_unique<OwnedLane>();
  double* arrivals = owned_lane_->lane.inline_arrivals;
  if (cfg_.k > ReceiveLane::kInlineArrivals) {
    owned_lane_->arrivals.resize(static_cast<std::size_t>(cfg_.k));
    arrivals = owned_lane_->arrivals.data();
  }
  init_lane(owned_lane_->lane, arrivals);
}

void ClusterSyncEngine::adopt_lane(ReceiveLane* lane, double* arrivals) {
  FTGCS_EXPECTS(lane_ == nullptr);  // before the lane's first use
  FTGCS_EXPECTS(lane != nullptr);
  FTGCS_EXPECTS(arrivals != nullptr ||
                cfg_.k <= ReceiveLane::kInlineArrivals);
  // Small clusters live in the lane's own second cache line; larger ones
  // in the caller-provided external bank.
  init_lane(*lane, arrivals != nullptr ? arrivals : lane->inline_arrivals);
}

void ClusterSyncEngine::start() {
  FTGCS_EXPECTS(round_ == 0);
  begin_round(start_round_);
}

void ClusterSyncEngine::halt() {
  timers_.cancel(kPulseTimer);
  timers_.cancel(kPhaseTwoEndTimer);
  timers_.cancel(kRoundEndTimer);
  sim().cancel(pending_loopback_);
  pending_loopback_ = sim::EventId{};
  receive_lane().listening = 0;
}

void ClusterSyncEngine::begin_round(int r) {
  ReceiveLane& lane = receive_lane();
  round_ = r;
  lane.listening = 1;
  std::fill_n(lane.arrivals, static_cast<std::size_t>(cfg_.k),
              kUnsetArrival);
  lane.own_arrival = kUnsetArrival;

  // Algorithm 1 line 3: δ_v ← 1 for phases 1 and 2.
  clock_.set_delta(sim().now(), 1.0);

  if (hooks_ != nullptr) hooks_->on_round_start(r);

  const double base = round_start_logical();
  timers_.arm(kPulseTimer, base + cfg_.tau1);
  timers_.arm(kPhaseTwoEndTimer, base + cfg_.tau1 + cfg_.tau2);
  timers_.arm(kRoundEndTimer, base + round_length());
}

void ClusterSyncEngine::on_logical_timer(clocks::LogicalTimerSet::Key key) {
  switch (key) {
    case kPulseTimer:
      pulse_instant(sim().now());
      break;
    case kPhaseTwoEndTimer:
      end_phase_two(sim().now());
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
  ReceiveLane& lane = receive_lane();
  if (round_ == payload.a && lane.listening) {
    lane.own_arrival = clock_.read(now);
  } else {
    ++lane.dropped;
  }
}

void ClusterSyncEngine::pulse_instant(sim::Time now) {
  if (hooks_ != nullptr) hooks_->on_pulse_instant(round_, now);
  if (!active()) {
    // Corollary 3.5: the passive observer simulates its own pulse; the
    // loopback delay is drawn from the same physical interval [d−U, d].
    const sim::Duration delay =
        loopback_rng_.uniform(cfg_.d - cfg_.U, cfg_.d);
    sim::EventPayload payload;
    payload.a = round_;
    pending_loopback_ =
        sim().post_after(delay, sim::EventKind::kPulse, self_, payload);
  }
  // Active mode: the owner broadcasts in on_pulse_instant; the physical
  // loopback delivers to on_member_pulse(own_index_), which records
  // own_arrival.
}

void ClusterSyncEngine::on_member_pulse(int member_index, sim::Time now) {
  FTGCS_EXPECTS(member_index >= 0 && member_index < cfg_.k);
  // Before start() the lane is not listening, so pre-round pulses count as
  // dropped exactly as they always did.
  lane_receive(receive_lane(), member_index, now);
}

double ClusterSyncEngine::compute_correction() {
  // Pulses that did not arrive are clamped to the end of the collection
  // window — the latest moment they could still legitimately arrive.
  const ReceiveLane& lane = *lane_;
  const double window_end = round_start_logical() + cfg_.tau1 + cfg_.tau2;
  const double own_slot = lane.own_arrival;
  const double own = own_slot == own_slot ? own_slot : window_end;

  // Clusters up to kStackOffsets sort on the stack; larger ones (no
  // registered scenario has them) in a per-call vector.
  constexpr int kStackOffsets = 64;
  const auto k = static_cast<std::size_t>(cfg_.k);
  std::array<double, kStackOffsets> stack_buf;
  std::vector<double> heap_buf;
  double* offsets = stack_buf.data();
  if (cfg_.k > kStackOffsets) {
    heap_buf.resize(k);
    offsets = heap_buf.data();
  }
  for (std::size_t i = 0; i < k; ++i) {
    const double slot = lane.arrivals[i];
    offsets[i] = (slot == slot ? slot : window_end) - own;
  }
  std::sort(offsets, offsets + k);
  // ∆_v(r) = (S^(f+1) + S^(k−f)) / 2, 1-based order statistics.
  const auto f = static_cast<std::size_t>(cfg_.f);
  const double lo = offsets[f];
  const double hi = offsets[k - 1 - f];
  return (lo + hi) / 2.0;
}

void ClusterSyncEngine::end_phase_two(sim::Time now) {
  ReceiveLane& lane = *lane_;
  lane.listening = 0;
  int received = 0;
  for (int i = 0; i < cfg_.k; ++i) {
    const double slot = lane.arrivals[i];
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

  if (hooks_ != nullptr) hooks_->on_correction(round_, raw, violated);
}

}  // namespace ftgcs::core
