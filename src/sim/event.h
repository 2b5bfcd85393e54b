// Typed event vocabulary for the zero-allocation event engine.
//
// The hot paths of the simulation — pulse deliveries, logical-timer fires,
// drift steps, metric probes — are all "small data + known receiver". The
// engine therefore dispatches a tagged union instead of type-erased
// closures: an event carries an EventKind, the index of a registered
// EventSink, and a fixed-size POD payload the sink interprets. Nothing on
// this path allocates, and cancellation is a generation-stamp bump on the
// event's pool slot (see event_queue.h). It is the only dispatch path:
// cold one-shot work (Byzantine sends, edge toggles, baseline timeouts)
// is a typed event to its owner's sink like everything else.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time_types.h"

namespace ftgcs::sim {

/// Tag of a typed event. The engine never interprets the payload — the tag
/// exists so one sink can multiplex several event families (and so traces
/// and debuggers can tell events apart without knowing the receiver).
///
/// Kinds start at 1, so a zero (sink << 8 | kind) word names no event;
/// EventQueue::pop_run matches only group deliveries against a channel.
enum class EventKind : std::uint8_t {
  kPulse = 1,  ///< network message delivery (net/Network)
  kTimer,      ///< timer fire (clocks/LogicalTimerSet, one-shot timers)
  kDrift,      ///< hardware-drift step (clocks/DriftModel)
  kProbe,      ///< periodic measurement (metrics/SkewProbe)
};

/// Fixed-size POD payload of a typed event. Fields are generic words; the
/// (kind, sink) pair defines the schema. Conventions used in this codebase:
///   kPulse: a=sender, b=level, c=dest node, d=PulseKind, x=value
///   kTimer: a=key/round, x=auxiliary value (one-shot timers: see the
///           owner's on_event)
///   kDrift: a=script index / phase flag
///   kProbe: unused
struct EventPayload {
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::uint32_t d = 0;
  double x = 0.0;
};

/// Stable index of a registered EventSink (see Simulator::register_sink).
using SinkId = std::uint32_t;

inline constexpr SinkId kInvalidSink = 0xffffffffu;

/// One event of a batched drain run: the payload plus its own fire time
/// (batch items fire at distinct instants; the receiver must use `at`, not
/// a single shared now).
struct BatchedEvent {
  Time at = 0.0;
  EventPayload payload;
};

/// Classifies a payload as a *pure receive* for the batch drain (see
/// Simulator::set_batch_channel). Must be a stateless read of `ctx` —
/// called once per candidate event at pop time. A plain function pointer
/// (no type erasure): the call sits inside the queue's pop loop.
using BatchPredicate = bool (*)(const EventPayload& payload, const void* ctx);

/// Receiver of typed events. Components register once (getting a stable
/// SinkId) and receive every typed event addressed to them through this
/// interface — no per-event closure, no allocation.
class EventSink {
 public:
  virtual void on_event(EventKind kind, const EventPayload& payload,
                        Time now) = 0;

  /// Batched delivery of a contiguous run of fire-only events previously
  /// classified as pure receives by the sink's BatchPredicate. Items are in
  /// exact (time, seq) fire order; each carries its own fire time. The
  /// default simply replays them through on_event.
  virtual void on_event_batch(EventKind kind, const BatchedEvent* events,
                              std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      on_event(kind, events[i].payload, events[i].at);
    }
  }

 protected:
  ~EventSink() = default;  // never deleted through the interface
};

}  // namespace ftgcs::sim
