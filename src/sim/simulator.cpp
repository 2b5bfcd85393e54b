#include "sim/simulator.h"

#include <utility>

#include "support/assert.h"

namespace ftgcs::sim {

EventId Simulator::at(Time t, Callback fn) {
  FTGCS_EXPECTS(t >= now_);
  return queue_.schedule(t, std::move(fn));
}

EventId Simulator::after(Duration dt, Callback fn) {
  FTGCS_EXPECTS(dt >= 0.0);
  return queue_.schedule(now_ + dt, std::move(fn));
}

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
  // kClosure would pack to the same (sink << 8 | kind) = 0 key that
  // cancellable ladder entries carry by default — pop_run's mismatch test
  // relies on a real channel key never being 0.
  FTGCS_EXPECTS(kind != EventKind::kClosure);
  batch_pred_ = pred;
  batch_ctx_ = ctx;
  batch_sink_ = sinks_[sink];
  batch_kind_ = kind;
  batch_key_ = sink << 8 | static_cast<std::uint32_t>(kind);
  batch_buf_.resize(kMaxBatch);
  run_buf_.resize(kMaxRun);
  scratch_.ensure(kMaxRun);
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
                                     const std::int32_t* rest_dests) {
  FTGCS_EXPECTS(sink < sinks_.size());
  queue_.schedule_fire_only_group(now_, delays, count, kind, sink, proto,
                                  first_dest, rest_dests);
}

void Simulator::dispatch(EventQueue::Fired& fired) {
  if (fired.kind == EventKind::kClosure) {
    fired.fn();
  } else {
    sinks_[fired.sink]->on_event(fired.kind, fired.payload, now_);
  }
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  FTGCS_ASSERT(fired.at >= now_);
  now_ = fired.at;
  ++fired_;
  dispatch(fired);
  return true;
}

void Simulator::run_until(Time t_end) {
  FTGCS_EXPECTS(t_end >= now_);
  EventQueue::Fired fired;
  for (;;) {
    if (batch_pred_ != nullptr) {
      // Time-partitioned tranche first: every channel event strictly
      // below the partition horizon fires in one unordered batch, skipping
      // the drain sort. now_ is deliberately NOT advanced — the tranche is
      // unordered, each item carries its own fire time, and channel
      // receivers never read now() (the batch contract); the clock next
      // moves when an ordered event fires, which is ≥ every tranche item
      // by the horizon's construction.
      const std::size_t u =
          queue_.pop_run_unordered(t_end, batch_key_, batch_pred_,
                                   batch_ctx_, run_buf_.data(), kMaxRun);
      if (u != 0) {
        fired_ += u;
        batch_sink_->on_event_batch(batch_kind_, run_buf_.data(), u);
        continue;
      }
      // Ordered sliver: channel events at or beyond the horizon (barrier
      // ties) still drain as contiguous (time, seq) runs.
      const std::size_t n =
          queue_.pop_run(t_end, batch_key_, batch_pred_, batch_ctx_,
                         batch_buf_.data(), kMaxBatch);
      if (n != 0) {
        FTGCS_ASSERT(batch_buf_[0].at >= now_);
        now_ = batch_buf_[n - 1].at;
        fired_ += n;
        batch_sink_->on_event_batch(batch_kind_, batch_buf_.data(), n);
        continue;
      }
    }
    if (!queue_.pop_if_at_most(t_end, fired)) break;
    FTGCS_ASSERT(fired.at >= now_);
    now_ = fired.at;
    ++fired_;
    dispatch(fired);
  }
  now_ = t_end;
}

}  // namespace ftgcs::sim
