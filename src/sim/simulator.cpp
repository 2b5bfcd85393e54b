#include "sim/simulator.h"

#include "support/assert.h"

namespace ftgcs::sim {

SinkId Simulator::register_sink(EventSink* sink) {
  FTGCS_EXPECTS(sink != nullptr);
  sinks_.push_back(sink);
  return static_cast<SinkId>(sinks_.size() - 1);
}

void Simulator::set_batch_channel(SinkId sink, EventKind kind,
                                  BatchPredicate pred, const void* ctx) {
  FTGCS_EXPECTS(sink < sinks_.size());
  FTGCS_EXPECTS(pred != nullptr);
  FTGCS_EXPECTS(batch_pred_ == nullptr);  // one channel per simulator
  // Kind 0 would pack to the same (sink << 8 | kind) = 0 key that
  // cancellable ladder entries carry by default — pop_run's mismatch test
  // relies on a real channel key never being 0.
  FTGCS_EXPECTS(static_cast<std::uint32_t>(kind) != 0);
  batch_pred_ = pred;
  batch_ctx_ = ctx;
  batch_sink_ = sinks_[sink];
  batch_kind_ = kind;
  batch_key_ = sink << 8 | static_cast<std::uint32_t>(kind);
  batch_buf_.resize(kMaxBatch);
  scratch_.ensure(kMaxBatch);
}

bool Simulator::enable_dead_ring(Duration min_delay, Duration max_delay,
                                 DeadFired fired, void* ctx) {
  FTGCS_EXPECTS(fired != nullptr);
  dead_fired_ = fired;
  dead_ctx_ = ctx;
  return dead_.configure(min_delay, max_delay);
}

EventId Simulator::post_at(Time t, EventKind kind, SinkId sink,
                           const EventPayload& payload) {
  FTGCS_EXPECTS(t >= now_);
  FTGCS_EXPECTS(sink < sinks_.size());
  return queue_.schedule_typed(t, kind, sink, payload);
}

EventId Simulator::post_after(Duration dt, EventKind kind, SinkId sink,
                              const EventPayload& payload) {
  FTGCS_EXPECTS(dt >= 0.0);
  FTGCS_EXPECTS(sink < sinks_.size());
  return queue_.schedule_typed(now_ + dt, kind, sink, payload);
}

void Simulator::post_fire_only_after(Duration dt, EventKind kind, SinkId sink,
                                     const EventPayload& payload) {
  FTGCS_EXPECTS(dt >= 0.0);
  FTGCS_EXPECTS(sink < sinks_.size());
  queue_.schedule_fire_only(now_ + dt, kind, sink, payload);
}

void Simulator::post_fire_only_at(Time t, EventKind kind, SinkId sink,
                                  const EventPayload& payload) {
  FTGCS_EXPECTS(t >= now_);
  FTGCS_EXPECTS(sink < sinks_.size());
  queue_.schedule_fire_only(t, kind, sink, payload);
}

void Simulator::post_fire_only_group(const Duration* delays, std::size_t count,
                                     EventKind kind, SinkId sink,
                                     const EventPayload& proto,
                                     std::int32_t first_dest,
                                     const std::int32_t* rest_dests,
                                     const std::uint8_t* mask) {
  FTGCS_EXPECTS(sink < sinks_.size());
  if (mask != nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      FTGCS_EXPECTS(mask[i] <= kSkippedDelivery);
      if (mask[i] != kDeadDelivery) continue;
      FTGCS_EXPECTS(dead_.enabled());
      // The arithmetic of the queue's own arrival time (base + delay).
      dead_.push(now_, now_ + delays[i]);
    }
  }
  queue_.schedule_fire_only_group(now_, delays, count, kind, sink, proto,
                                  first_dest, rest_dests, mask);
}

void Simulator::run_until(Time t_end) {
  FTGCS_EXPECTS(t_end >= now_);
  // Dead deliveries (DeadRing) fire a bin at a time once the clock has
  // passed the bin, and the last ones ≤ t_end before returning. A dead
  // delivery's only effect is its count, so firing up to a bin late
  // changes nothing a run_until caller can see.
  EventQueue::Fired fired;
  for (;;) {
    if (batch_pred_ != nullptr) {
      const std::size_t n =
          queue_.pop_run(t_end, batch_key_, batch_pred_, batch_ctx_,
                         batch_buf_.data(), kMaxBatch);
      if (n != 0) {
        FTGCS_ASSERT(batch_buf_[0].at >= now_);
        now_ = batch_buf_[n - 1].at;
        fired_ += n;
        batch_sink_->on_event_batch(batch_kind_, batch_buf_.data(), n);
        if (dead_.passed(now_)) fire_dead(dead_.retire_before(now_));
        continue;
      }
    }
    if (!queue_.pop_if_at_most(t_end, fired)) break;
    FTGCS_ASSERT(fired.at >= now_);
    if (dead_.passed(fired.at)) fire_dead(dead_.retire_before(fired.at));
    now_ = fired.at;
    ++fired_;
    sinks_[fired.sink]->on_event(fired.kind, fired.payload, now_);
  }
  if (!dead_.empty()) fire_dead(dead_.retire_through(t_end));
  now_ = t_end;
}

}  // namespace ftgcs::sim
