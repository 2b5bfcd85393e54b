// Single-threaded discrete-event simulator facade.
//
// Owns the virtual clock and the event queue (the ladder front-end of
// sim/event_queue.h). Protocol components schedule
// work at absolute Newtonian times; the simulator advances time to the next
// event and fires it. Time never flows backwards and events scheduled in
// the past are rejected (contract violation), which catches clock inversion
// bugs early.
//
// Two scheduling paths exist:
//   * typed  — register_sink() once, then post_at()/post_after() with an
//     EventKind + POD payload; dispatch is an indexed virtual call and the
//     whole path is allocation-free (the hot path: pulses, timers, drift).
//   * closure — at()/after() with a std::function, for cold one-shot work
//     (fault injection, topology toggles, tests).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event.h"
#include "sim/event_queue.h"
#include "sim/scratch_arena.h"
#include "sim/time_types.h"

namespace ftgcs::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// Current Newtonian time.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t >= now()`.
  EventId at(Time t, Callback fn);

  /// Schedules `fn` after a non-negative delay.
  EventId after(Duration dt, Callback fn);

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
  /// preserving exact interleaving.
  ///
  /// The run loop additionally drains accepted events by TIME PARTITION
  /// (EventQueue::pop_run_unordered): everything strictly below the next
  /// non-channel event fires in one unordered tranche, skipping the
  /// per-bucket drain sort. That adds two obligations on top of the
  /// contract above: processing accepted events must COMMUTE within a
  /// tranche (the receiver's end state and counters must not depend on
  /// the order of accepted events between two barrier events — see
  /// core/receive_lane.h for the proof obligation this discharges), and
  /// `pred` must be MONOTONE — once it accepts a payload it accepts it
  /// forever (classification may only widen over a run).
  void set_batch_channel(SinkId sink, EventKind kind, BatchPredicate pred,
                         const void* ctx);

  /// Schedules a typed event at absolute time `t >= now()`.
  EventId post_at(Time t, EventKind kind, SinkId sink,
                  const EventPayload& payload);

  /// Schedules a typed event after a non-negative delay.
  EventId post_after(Duration dt, EventKind kind, SinkId sink,
                     const EventPayload& payload);

  /// Schedules a typed event after a non-negative delay that can never be
  /// cancelled or rescheduled. The dominant traffic — pulse deliveries —
  /// is fire-only; this path carries the payload inline in the queue (no
  /// slot pool, no handle bookkeeping).
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
  void post_fire_only_group(const Duration* delays, std::size_t count,
                            EventKind kind, SinkId sink,
                            const EventPayload& proto, std::int32_t first_dest,
                            const std::int32_t* rest_dests);

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

  /// Fires exactly one event if available. Returns false when idle.
  bool step();

  /// True if no pending events remain.
  bool idle() const { return queue_.empty(); }

  /// Pre-sizes the event pool (see EventQueue::reserve).
  void reserve_events(std::size_t capacity) { queue_.reserve(capacity); }

  /// Pins the queue's warmed-up capacity profile so steady-state windows
  /// allocate nothing (see EventQueue::prewarm).
  void prewarm() { queue_.prewarm(); }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t fired_events() const { return fired_; }
  std::uint64_t scheduled_events() const { return queue_.scheduled_count(); }

  /// Queue-tier diagnostics (bucket count, rung spawns, overflow peak,
  /// batch run lengths); deterministic, surfaced by sweep `--timing`
  /// footers.
  EventQueue::TierStats queue_stats() const { return queue_.tier_stats(); }

  /// Time of the earliest pending event (kTimeInfinity when idle): the
  /// partition horizon seen from outside the queue. O(1) amortized; it
  /// may sort the current drain bucket.
  Time next_event_time() const { return queue_.next_time(); }

  /// Simulator-owned scratch columns for batch-channel receivers, sized to
  /// the partitioned tranche (kMaxRun) up front so receivers never
  /// allocate per run. Shared: there is at most one batch channel, and its
  /// runs are processed one at a time.
  BatchScratch& batch_scratch() { return scratch_; }

  /// Ordered batch runs are bounded so the drain buffer stays
  /// cache-resident and a long pulse train still yields to the run loop's
  /// t_end check promptly.
  static constexpr std::size_t kMaxBatch = 256;
  /// Partitioned (unordered) tranches are larger: each one amortizes a
  /// full calendar sweep, and the queue enforces t_end in-sweep, so the
  /// only bound needed is the working-set size (32 B/event → 64 KiB).
  /// Public so batch receivers and benches can size buffers to match.
  static constexpr std::size_t kMaxRun = 2048;

 private:
  void dispatch(EventQueue::Fired& fired);

  EventQueue queue_;
  std::vector<EventSink*> sinks_;
  Time now_ = kTimeZero;
  std::uint64_t fired_ = 0;

  // ---- batch channel (see set_batch_channel) --------------------------------
  BatchPredicate batch_pred_ = nullptr;
  const void* batch_ctx_ = nullptr;
  EventSink* batch_sink_ = nullptr;
  EventKind batch_kind_ = EventKind::kPulse;
  std::uint32_t batch_key_ = 0;  ///< packed sink << 8 | kind
  std::vector<BatchedEvent> batch_buf_;  ///< ordered runs (kMaxBatch)
  std::vector<BatchedEvent> run_buf_;    ///< partitioned tranches (kMaxRun)
  BatchScratch scratch_;                 ///< receiver scratch (see accessor)
};

}  // namespace ftgcs::sim
