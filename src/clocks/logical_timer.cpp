#include "clocks/logical_timer.h"

#include "support/assert.h"

namespace ftgcs::clocks {

LogicalTimerSet::LogicalTimerSet(sim::Simulator& simulator,
                                 LogicalClock& clock, Client& client)
    : sim_(simulator), clock_(clock), client_(client) {
  self_ = simulator.register_sink(this);
  clock_.set_rate_observer([this](sim::Time now) { reschedule_all(now); });
}

LogicalTimerSet::~LogicalTimerSet() {
  clock_.set_rate_observer(nullptr);
  for (auto& pending : pending_) {
    if (pending.armed) sim_.cancel(pending.event);
  }
}

sim::EventId LogicalTimerSet::schedule_one(Key key, double target) {
  const sim::Time fire_at = clock_.when_reaches(target, sim_.now());
  sim::EventPayload payload;
  payload.a = static_cast<std::int32_t>(key);
  return sim_.post_at(fire_at, sim::EventKind::kTimer, self_, payload);
}

void LogicalTimerSet::on_event(sim::EventKind kind,
                               const sim::EventPayload& payload,
                               sim::Time /*now*/) {
  FTGCS_ASSERT(kind == sim::EventKind::kTimer);
  const Key key = static_cast<Key>(payload.a);
  FTGCS_ASSERT(key < kMaxKeys);
  Pending& pending = pending_[key];
  FTGCS_ASSERT(pending.armed);
  pending.armed = false;  // disarm before firing so the fire may re-arm
  --armed_count_;
  client_.on_logical_timer(key);
}

void LogicalTimerSet::arm(Key key, double logical_target) {
  FTGCS_EXPECTS(key < kMaxKeys);
  cancel(key);
  Pending& pending = pending_[key];
  pending.armed = true;
  pending.target = logical_target;
  pending.event = schedule_one(key, logical_target);
  ++armed_count_;
}

void LogicalTimerSet::cancel(Key key) {
  if (!armed(key)) return;
  Pending& pending = pending_[key];
  sim_.cancel(pending.event);
  pending.armed = false;
  --armed_count_;
}

void LogicalTimerSet::reschedule_all(sim::Time now) {
  (void)now;
  for (Key key = 0; key < kMaxKeys; ++key) {
    Pending& pending = pending_[key];
    if (!pending.armed) continue;
    const sim::Time fire_at = clock_.when_reaches(pending.target, sim_.now());
    const bool moved = sim_.reschedule(pending.event, fire_at);
    FTGCS_ASSERT(moved);
  }
}

}  // namespace ftgcs::clocks
