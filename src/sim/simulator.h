// Single-threaded discrete-event simulator facade.
//
// Owns the virtual clock and the event queue (the ladder front-end of
// sim/event_queue.h). Protocol components schedule
// work at absolute Newtonian times; the simulator advances time to the next
// event and fires it. Time never flows backwards and events scheduled in
// the past are rejected (contract violation), which catches clock inversion
// bugs early.
//
// There is one scheduling path: register_sink() once, then post_at()/
// post_after() (cancellable) or the post_fire_only_*() family with an
// EventKind + POD payload. Dispatch is an indexed virtual call and the
// whole path is allocation-free. A coalesced broadcast may mark some of
// its deliveries dead (proven pure drops, see post_fire_only_group): those
// skip the queue for the DeadRing, which only counts them as fired once
// the clock has passed their arrival. It may also mark deliveries skipped
// (routed to another shard): those take only their seq.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/dead_ring.h"
#include "sim/event.h"
#include "sim/event_queue.h"
#include "sim/scratch_arena.h"
#include "sim/time_types.h"

namespace ftgcs::sim {

class Simulator {
 public:
  /// Current Newtonian time.
  Time now() const { return now_; }

  /// Registers a typed-event receiver; the returned id is stable for the
  /// simulator's lifetime. The sink must outlive the simulator (sinks are
  /// the long-lived protocol components).
  SinkId register_sink(EventSink* sink);

  /// Registers THE batch channel (at most one per simulator): fire-only
  /// events of (`sink`, `kind`) whose payload `pred(payload, ctx)` accepts
  /// are drained in runs and handed to sink->on_event_batch() instead of
  /// one on_event() per event. Contract: processing an accepted event must
  /// be a PURE RECEIVE — it must not schedule, cancel, or reschedule
  /// events, and must not read now() (batch items each carry their own
  /// fire time). Any event violating that must be rejected by `pred`; the
  /// run then breaks before it and it fires through the ordinary path,
  /// preserving exact interleaving. Runs are drained in exact (time, seq)
  /// order (EventQueue::pop_run), so every event fires in the order
  /// per-event dispatch would have.
  void set_batch_channel(SinkId sink, EventKind kind, BatchPredicate pred,
                         const void* ctx);

  /// Receives the count of dead deliveries that fired together (see
  /// enable_dead_ring); `ctx` is passed through.
  using DeadFired = void (*)(std::size_t n, void* ctx);

  /// Turns on dead-delivery elision: post_fire_only_group then accepts a
  /// dead mask for deliveries whose delays lie in [min_delay, max_delay].
  /// A dead delivery is a pure drop whose only effect is to be counted: it
  /// fires (fired_events()) once the drain clock has passed its arrival, a
  /// DeadRing bin at a time, and `fired` gets the bin's count. Returns
  /// false, and elision stays off, if the window is degenerate (see
  /// DeadRing::configure).
  bool enable_dead_ring(Duration min_delay, Duration max_delay,
                        DeadFired fired, void* ctx);

  /// Schedules a typed event at absolute time `t >= now()`.
  EventId post_at(Time t, EventKind kind, SinkId sink,
                  const EventPayload& payload);

  /// Schedules a typed event after a non-negative delay.
  EventId post_after(Duration dt, EventKind kind, SinkId sink,
                     const EventPayload& payload);

  /// Schedules a typed event after a non-negative delay that can never be
  /// cancelled or rescheduled: a group of one in the queue (no slot, no
  /// handle bookkeeping) unless payload.x ≠ 0, which takes a slot (see
  /// EventQueue::schedule_fire_only).
  void post_fire_only_after(Duration dt, EventKind kind, SinkId sink,
                            const EventPayload& payload);

  /// Absolute-time variant of post_fire_only_after. The sharded backend
  /// seeds each shard's queue from merged cross-shard mailboxes, whose
  /// entries carry the arrival times sampled on the *sending* shard —
  /// those must be replayed exactly, not re-derived from now().
  void post_fire_only_at(Time t, EventKind kind, SinkId sink,
                         const EventPayload& payload);

  /// Coalesced broadcast: `count` fire-only deliveries of one logical send
  /// in a single queue call — delivery i at now() + delays[i], aimed at
  /// `first_dest` (i = 0) or `rest_dests[i − 1]`, carrying `proto` with
  /// only `c` re-aimed. Fires bit-identically to `count` sequential
  /// post_fire_only_after calls; the deliveries share one pooled group
  /// record and 16-byte entries, and `rest_dests`
  /// must stay valid until the last delivery fires (see
  /// EventQueue::schedule_fire_only_group).
  ///
  /// `mask` (optional) takes deliveries out of the queue; each still
  /// consumes its seq, so the survivors fire exactly as without the mask:
  ///  * kDeadDelivery (requires enable_dead_ring): a pure drop on arrival.
  ///    The DeadRing counts it as fired after its arrival, and before
  ///    run_until returns from any t_end ≥ it, so fired_events() reads
  ///    the same as without the mask;
  ///  * kSkippedDelivery: delivered elsewhere (routed to another shard by
  ///    the caller); this simulator never fires it.
  void post_fire_only_group(const Duration* delays, std::size_t count,
                            EventKind kind, SinkId sink,
                            const EventPayload& proto, std::int32_t first_dest,
                            const std::int32_t* rest_dests,
                            const std::uint8_t* mask = nullptr);

  /// Mask values of post_fire_only_group (0: an ordinary delivery).
  static constexpr std::uint8_t kDeadDelivery = 1;
  static constexpr std::uint8_t kSkippedDelivery = 2;

  /// Cancels a pending event; no-op if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves a pending event to `t >= now()` under a fresh FIFO sequence —
  /// observably identical to cancel + re-post, but with no slot churn
  /// (usually an in-place overwrite inside its calendar bucket).
  /// Returns false if the event already fired or was cancelled.
  bool reschedule(EventId id, Time t) {
    FTGCS_EXPECTS(t >= now_);
    return queue_.reschedule(id, t);
  }

  /// Runs events until the queue empties or the next event is later than
  /// `t_end`; afterwards now() == min(t_end, last event time fired) and is
  /// then advanced to exactly `t_end`.
  void run_until(Time t_end);

  /// True if no pending events remain.
  bool idle() const { return queue_.empty() && dead_.empty(); }

  /// Pins the queue's warmed-up capacity profile so steady-state windows
  /// allocate nothing (see EventQueue::prewarm).
  void prewarm() {
    queue_.prewarm();
    dead_.prewarm();
  }

  std::size_t pending_events() const { return queue_.size() + dead_.size(); }
  std::uint64_t fired_events() const { return fired_; }
  std::uint64_t scheduled_events() const { return queue_.scheduled_count(); }

  /// Queue-tier diagnostics (bucket count, rung spawns, overflow peak,
  /// batch run lengths); deterministic, surfaced by sweep `--timing`
  /// footers.
  EventQueue::TierStats queue_stats() const { return queue_.tier_stats(); }

  /// Simulator-owned scratch columns for batch-channel receivers, sized to
  /// the longest run (kMaxBatch) up front so receivers never allocate per
  /// run. Shared: there is at most one batch channel, and its runs are
  /// processed one at a time.
  BatchScratch& batch_scratch() { return scratch_; }

  /// Batch runs are bounded so the drain buffer stays cache-resident.
  /// Public so batch receivers and tests can size buffers to match.
  static constexpr std::size_t kMaxBatch = 256;

 private:
  /// Fires n dead deliveries.
  void fire_dead(std::size_t n) {
    if (n == 0) return;
    fired_ += n;
    dead_fired_(n, dead_ctx_);
  }

  EventQueue queue_;
  DeadRing dead_;  ///< elided deliveries (see post_fire_only_group)
  DeadFired dead_fired_ = nullptr;
  void* dead_ctx_ = nullptr;
  std::vector<EventSink*> sinks_;
  Time now_ = kTimeZero;
  std::uint64_t fired_ = 0;

  // ---- batch channel (see set_batch_channel) --------------------------------
  BatchPredicate batch_pred_ = nullptr;
  const void* batch_ctx_ = nullptr;
  EventSink* batch_sink_ = nullptr;
  EventKind batch_kind_ = EventKind::kPulse;
  std::uint32_t batch_key_ = 0;  ///< packed sink << 8 | kind
  std::vector<BatchedEvent> batch_buf_;  ///< one run (kMaxBatch)
  BatchScratch scratch_;                 ///< receiver scratch (see accessor)
};

}  // namespace ftgcs::sim
