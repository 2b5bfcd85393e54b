#include "clocks/logical_timer.h"

#include "support/assert.h"

namespace ftgcs::clocks {

LogicalTimerSet::LogicalTimerSet(sim::Simulator& simulator,
                                 LogicalClock& clock, Client& client)
    : sim_(simulator), clock_(clock), client_(client) {
  self_ = simulator.register_sink(this);
  clock_.set_rate_observer(this);
}

LogicalTimerSet::~LogicalTimerSet() {
  clock_.set_rate_observer(nullptr);
  for (const Pending& pending : pending_) {
    if (pending.event) sim_.cancel(pending.event);
  }
}

std::size_t LogicalTimerSet::armed_count() const {
  std::size_t count = 0;
  for (const Pending& pending : pending_) count += pending.event ? 1 : 0;
  return count;
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
  FTGCS_ASSERT(key >= 1 && key < kMaxKeys);
  Pending& pending = slot(key);
  FTGCS_ASSERT(pending.event);
  pending.event = sim::EventId{};  // disarm before firing: it may re-arm
  client_.on_logical_timer(key);
}

void LogicalTimerSet::arm(Key key, double logical_target) {
  FTGCS_EXPECTS(key >= 1 && key < kMaxKeys);
  cancel(key);
  Pending& pending = slot(key);
  pending.target = logical_target;
  pending.event = schedule_one(key, logical_target);
}

void LogicalTimerSet::cancel(Key key) {
  if (!armed(key)) return;
  Pending& pending = slot(key);
  sim_.cancel(pending.event);
  pending.event = sim::EventId{};
}

void LogicalTimerSet::on_rate_change(sim::Time /*now*/) {
  for (Pending& pending : pending_) {
    if (!pending.event) continue;
    const sim::Time fire_at = clock_.when_reaches(pending.target, sim_.now());
    const bool moved = sim_.reschedule(pending.event, fire_at);
    FTGCS_ASSERT(moved);
  }
}

}  // namespace ftgcs::clocks
