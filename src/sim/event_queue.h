// Cancellable discrete-event queue — typed, slot-pooled, allocation-free
// after warm-up, with a calendar (ladder) priority front-end.
//
// Events are (time, sequence) ordered; sequence numbers break ties FIFO so
// executions are fully deterministic, and the pop sequence is that of a
// plain (time, seq) priority queue: pinned against the map-based reference
// queue in tests/reference_queue.h by tests/test_queue_differential.cpp,
// and by the golden scenario traces.
//
// Every queued event is one 16-byte Entry {time, key}, key = seq << 22 |
// ref. The ref names where the rest of the event lives:
//   * a SLOT (ref < kGroupBase) — cancellable events, and fire-only ones
//     whose payload carries x ≠ 0. The slot index and a generation stamp
//     are packed into the EventId, so stale handles (cancel-after-fire,
//     slot reuse) are rejected by a stamp comparison; slots are recycled
//     through a free list;
//   * a GROUP record (ref = kGroupBase + gid) — every other fire-only
//     event. One broadcast fan-out (schedule_fire_only_group: one sender's
//     pulse delivered to ~k² neighbours) writes its shared payload fields
//     once; a lone fire-only event is a group of one. Destinations are not
//     copied: the record borrows the caller's adjacency list and the
//     delivery index (seq − base_seq) recovers them, so seqs are assigned
//     in exactly the caller's per-delivery order.
//
// A calendar window of buckets over near-future time absorbs push/pop/
// reschedule in amortized O(1); far-future events live in an UNSORTED
// overflow lane whose order is never consulted — the window is rebuilt
// ("reseeded") by one linear scan of that lane whenever it drains. The
// bucket width is auto-tuned to the observed density (window =
// kWindowStretch × population span), and a bucket that piles up past
// kRungSpawnThreshold is split on drain into a finer "rung" of sub-buckets
// (a one-level ladder queue) instead of being ordered whole.
//
// Every lane (wheel bucket, rung sub-bucket, overflow) is an unsorted chain
// of 512-byte blocks from ONE queue-owned LIFO pool, so retained storage is
// O(live entries + non-empty lanes), wherever reseeds move the bands. When
// a bucket becomes the drain head it is scattered into one head vector and
// ordered there at once, descending, so pops are back() reads: a
// distribution pass over ~n time bins of the lane's measured span, then an
// exact pass, support::sort_nearly_sorted (a budgeted insertion sort,
// shared with the trace commit), over the few entries that share a bin.
// The head stays sorted: an insert into it is an ordered insert, a cancel
// out of it an order-keeping erase. A cancellable event's positions_ word
// records its residence (bucket tag + pool index), so cancel and
// reschedule in a chain are O(1) swap-removals; head indices shift with
// inserts, so a head removal verifies the slot before trusting an index.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/time_types.h"
#include "support/assert.h"
#include "support/stat_table.h"

namespace ftgcs::sim {

/// Opaque handle identifying a scheduled event: (slot+1, generation).
struct EventId {
  std::uint64_t value = 0;

  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
  explicit operator bool() const { return value != 0; }
};

class EventQueue {
 public:
  EventQueue() = default;

  // head_ points into this object's own bucket storage; a copied or
  // moved-from queue would alias another instance's buckets.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules a typed event at absolute time `t`. Events at equal time
  /// fire in scheduling order. The engine stores only the POD payload;
  /// the caller-side Simulator dispatches to the sink. Returns a handle
  /// for `cancel`/`reschedule`. Never allocates once the pool is warm.
  EventId schedule_typed(Time t, EventKind kind, SinkId sink,
                         const EventPayload& payload);

  /// Schedules a typed event that can never be cancelled or rescheduled
  /// (Fired.id is the null id): a group of one, or a slotted entry when
  /// payload.x ≠ 0. Fires in exactly the (time, seq) order a
  /// schedule_typed at the same instant would have.
  void schedule_fire_only(Time t, EventKind kind, SinkId sink,
                          const EventPayload& payload);

  /// Coalesced broadcast insert: schedules `count` fire-only deliveries of
  /// one logical send in a single call. Delivery i fires at
  /// `base + delays[i]` aimed at destination i — `first_dest` for i = 0
  /// (the sender's loopback) and `rest_dests[i − 1]` beyond — carrying the
  /// payload template `proto` with only `c` re-aimed (`proto.c` is
  /// ignored). Sequence numbers are assigned in delivery order, so the pop
  /// sequence is bit-identical to `count` schedule_fire_only calls in the
  /// same order.
  ///
  /// For x == 0 payloads the shared fields live in one pooled group record
  /// and `rest_dests` is BORROWED — it must stay valid and unchanged until
  /// every delivery of the group has fired (network adjacency lists
  /// qualify; they outlive the run). x ≠ 0 payloads fall back to
  /// per-delivery slotted entries with identical (time, seq) semantics.
  ///
  /// `skip` (optional): deliveries with skip[i] != 0 are not inserted —
  /// the caller keeps them elsewhere (an elided dead delivery, one routed
  /// to another shard) — but still consume their sequence numbers, so
  /// every survivor keeps the seq, and the tie order, it has without the
  /// mask. A group with no survivor takes no record.
  void schedule_fire_only_group(Time base, const Duration* delays,
                                std::size_t count, EventKind kind,
                                SinkId sink, const EventPayload& proto,
                                std::int32_t first_dest,
                                const std::int32_t* rest_dests,
                                const std::uint8_t* skip = nullptr);

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a no-op (returns false). Stamp bump + targeted
  /// removal from wherever the entry lives; no allocation.
  bool cancel(EventId id);

  /// Moves a pending event to time `t` under a fresh sequence number —
  /// observably identical to cancel(id) + re-schedule (same payload), but
  /// in place. Returns false (and does nothing) if `id` is no longer live.
  bool reschedule(EventId id, Time t);

  /// True if no live events remain.
  bool empty() const { return size() == 0; }

  /// Number of live (not cancelled, not fired) events.
  std::size_t size() const {
    return overflow_.count + wheel_live_ + rung_live_;
  }

  /// Time of the earliest live event; kTimeInfinity when empty. This may
  /// order the next bucket (logically const — the live event set and the
  /// pop order are unchanged).
  Time next_time() const;

  /// Pops and returns the earliest live event. Requires !empty().
  struct Fired {
    Time at = 0.0;
    EventId id;  ///< null for fire-only events
    EventKind kind = EventKind::kPulse;
    SinkId sink = kInvalidSink;
    EventPayload payload;
  };
  Fired pop();

  /// Single-inspection variant of next_time() + pop(): pops the earliest
  /// live event into `out` iff its time is ≤ `t_end`. The run loop's hot
  /// path — one head read per fired event instead of two.
  bool pop_if_at_most(Time t_end, Fired& out);

  /// Batch drain: pops the maximal run (≤ `max`) of consecutive earliest
  /// events at time ≤ `t_end` that belong to the batch channel — group
  /// deliveries whose packed (sink << 8 | kind) equals `sink_kind` and
  /// whose payload `pred(payload, ctx)` accepts — into `out`, in exact
  /// (time, seq) pop order. Stops at the first non-matching head (a
  /// slotted entry never matches), so an interleaved timer or cancellable
  /// event keeps its place. Returns the run length (0 when the head does
  /// not match). Safe only when the receiver's processing of a matching
  /// event schedules nothing (see Simulator::set_batch_channel for the
  /// contract).
  std::size_t pop_run(Time t_end, std::uint32_t sink_kind,
                      BatchPredicate pred, const void* ctx, BatchedEvent* out,
                      std::size_t max);

  /// Total events ever scheduled (for stats / microbenchmarks).
  /// Reschedules consume sequence numbers (they re-enter the FIFO order),
  /// so this counts logical schedules exactly like cancel+schedule would.
  std::uint64_t scheduled_count() const { return next_seq_ - 1; }

  /// Pre-sizes pool and tiers so the first `capacity` concurrent events
  /// allocate nothing.
  void reserve(std::size_t capacity);

  /// Pins the warmed-up capacity profile: reserves the block pool, the
  /// head vector, the window tiers and the group records at 2× the
  /// high-water reached so far. The pool allocates only when its free
  /// list is empty, and lane storage follows the live entries wherever the
  /// drifting window puts them, so after prewarm steady-state windows
  /// allocate nothing (the contract tests/test_alloc_guard.cpp pins). The
  /// reserve is address space the steady state never touches.
  void prewarm();

  /// Slots currently in the pool (diagnostics; high-water mark of
  /// concurrent slotted events).
  std::size_t pool_size() const { return slots_.size(); }

  /// Queue-tier diagnostics: deterministic functions of the schedule (no
  /// wall clock involved).
  struct TierStats {
    std::size_t bucket_count = 0;   ///< widest calendar window built
    std::uint64_t rung_spawns = 0;  ///< overflowing buckets split on drain
    std::size_t overflow_peak = 0;  ///< overflow-tier occupancy high-water mark
    std::uint64_t overflow_pushes = 0;  ///< events routed via the overflow tier
    std::uint64_t reseeds = 0;      ///< windows rebuilt from the overflow tier
    std::uint64_t ordered_run_events = 0;  ///< events drained by pop_run
    /// Entries through the drain head's exact pass (sort_nearly_sorted):
    /// each entry at most once, when its bucket becomes the drain head.
    std::uint64_t sorted_elements = 0;
    /// Exact passes whose move budget ran out, so std::sort finished them.
    std::uint64_t sort_fallbacks = 0;
    /// Always 0; kept for benchmark/ftgcs_e2e.cpp until the benchmark changes.
    std::uint64_t unordered_events = 0;
    // How the scheduled traffic was referenced. The names predate the one
    // 16 B entry shape and stay while benchmark/ftgcs_e2e.cpp reads them.
    std::uint64_t narrow_events = 0;   ///< group deliveries scheduled
    std::uint64_t wide_events = 0;     ///< slotted entries scheduled
    std::uint64_t group_inserts = 0;   ///< group records written
    /// Lane storage high-water: pool blocks ever allocated × 512 B plus
    /// the head vector's capacity.
    std::size_t lane_peak_bytes = 0;
    /// Non-empty lanes, and entries held in lanes and the head vector,
    /// when the pool last grew, i.e. at its high-water: the blocks then are
    /// at most the entries' bytes plus one partial block per lane.
    std::size_t lane_peak_lanes = 0;
    std::size_t lane_peak_live = 0;

    /// Entry bytes written at schedule time (16 B per entry + one 40 B
    /// group record per group). Reseed/rung redistribution traffic is not
    /// included.
    std::uint64_t entry_bytes() const {
      return 16 * (narrow_events + wide_events) + 40 * group_inserts;
    }
    /// Deliveries per group record.
    double mean_group() const {
      return group_inserts > 0 ? static_cast<double>(narrow_events) /
                                     static_cast<double>(group_inserts)
                               : 0.0;
    }
    double bytes_per_event() const {
      const std::uint64_t events = narrow_events + wide_events;
      return events > 0 ? static_cast<double>(entry_bytes()) /
                              static_cast<double>(events)
                        : 0.0;
    }

    /// Field table (support/stat_table.h): the `--timing` footer's queue,
    /// runs and bytes lines and the `.profile` diag rows. Every row is on
    /// the engine plane: it counts how the queue routed the events (and
    /// moves with the shard count), not what the protocol did.
    static constexpr auto fields() {
      using enum support::Agg;
      using enum support::Plane;
      using S = TierStats;
      return std::array{
          field<&S::bucket_count>("buckets", kMax, kEngine, "queue"),
          field<&S::rung_spawns>("rung_spawns", kSum, kEngine, "queue"),
          field<&S::overflow_peak>("overflow_peak", kMax, kEngine, "queue"),
          field<&S::reseeds>("reseeds", kSum, kEngine, "queue"),
          field<&S::ordered_run_events>("run_events", kSum, kEngine, "runs"),
          field<&S::sorted_elements>("sorted_elements", kSum, kEngine, "runs"),
          field<&S::sort_fallbacks>("sort_fallbacks", kSum, kEngine, "runs"),
          derived<&S::entry_bytes>("entry_bytes", kEngine, "bytes"),
          field<&S::narrow_events>("narrow", kSum, kEngine, "bytes"),
          field<&S::wide_events>("wide", kSum, kEngine, "bytes"),
          field<&S::group_inserts>("groups", kSum, kEngine, "bytes"),
          derived<&S::mean_group>("mean_group", kEngine, "bytes", "%.1f"),
          derived<&S::bytes_per_event>("bytes_per_event", kEngine, "bytes",
                                       "%.1f"),
          field<&S::lane_peak_bytes>("lane_peak_bytes", kFootprint, kEngine,
                                     "bytes"),
          field<&S::lane_peak_lanes>("lane_peak_lanes", kFootprint, kEngine,
                                     "bytes"),
          field<&S::lane_peak_live>("lane_peak_live", kFootprint, kEngine,
                                    "bytes"),
          field<&S::overflow_pushes>("overflow_pushes", kSum, kEngine,
                                     nullptr)};
    }
  };
  TierStats tier_stats() const {
    TierStats stats = stats_;
    stats.lane_peak_bytes =
        links_.size() * sizeof(Block) + drain_.capacity() * sizeof(Entry);
    return stats;
  }

 private:
  /// 32 bytes — two slots per cache line. The sink id and event kind share one word (24 + 8 bits): a run has at
  /// most a few-per-node sinks, far below 2^24.
  struct Slot {
    std::uint32_t gen = 1;  ///< never 0, so EventId.value != 0 always
    std::uint32_t sink_kind = 0;  ///< sink << 8 | kind
    EventPayload payload;

    void set(EventKind kind, SinkId sink) {
      sink_kind = sink << 8 | static_cast<std::uint32_t>(kind);
    }
    EventKind kind() const {
      return static_cast<EventKind>(sink_kind & 0xffu);
    }
    SinkId sink() const { return sink_kind >> 8; }
  };
  static_assert(sizeof(EventPayload) == 24);

  /// 22/42 split: the low kRefBits of a key hold the ref — a slot below
  /// kGroupBase (≤ 2M concurrent slotted events; a 40k-node run keeps a
  /// few per node) or kGroupBase + a group id — and the seq leaves ~4.4e12
  /// lifetime schedules before the guarded abort.
  static constexpr unsigned kRefBits = 22;
  static constexpr unsigned kSeqBits = 64 - kRefBits;
  static constexpr std::uint32_t kGroupBase = 1u << (kRefBits - 1);

  /// The one queue element: the sort key and nothing else. Comparing keys
  /// compares sequence numbers first (they are unique), so the ref bits
  /// never decide an ordering. The queue's streaming working set at
  /// 40k-node scale is hundreds of MB of entry traffic per second, so
  /// entry width is directly wall time.
  struct Entry {
    Time at;
    std::uint64_t key;  ///< seq << kRefBits | ref

    std::uint32_t ref() const {
      return static_cast<std::uint32_t>(key) & ((1u << kRefBits) - 1);
    }
    bool is_group() const { return ref() >= kGroupBase; }
  };
  static_assert(sizeof(Entry) == 16);

  /// Shared state of one group: the payload fields that are identical
  /// across the whole fan-out, written once per ~k² deliveries. `live`
  /// counts undecoded deliveries; at zero the record is recycled through
  /// free_gids_. `rest` is borrowed from the caller (see
  /// schedule_fire_only_group) and never owned here.
  struct GroupRec {
    std::uint64_t base_seq = 0;          ///< seq of delivery 0 (first_dest)
    const std::int32_t* rest = nullptr;  ///< dests of deliveries 1..count−1
    std::int32_t first_dest = 0;
    std::int32_t a = 0;                  ///< EventPayload::a
    std::int32_t b = 0;                  ///< EventPayload::b
    std::uint32_t d = 0;                 ///< EventPayload::d
    std::uint32_t sink_kind = 0;         ///< sink << 8 | kind
    std::uint32_t live = 0;              ///< deliveries still in the queue
  };
  static_assert(sizeof(GroupRec) == 40);

  // ---- pooled block lanes ---------------------------------------------------
  /// Pool block: 512 B — 32 entries, eight cache lines.
  static constexpr std::uint32_t kPerBlock = 32;
  struct alignas(64) Block {
    Entry entries[kPerBlock];
  };
  static_assert(sizeof(Block) == 512 && sizeof(Entry) * kPerBlock == 512);
  /// Block 0 ends every chain and is never handed out.
  static constexpr std::uint32_t kNil = 0;
  struct Link {
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
  };
  /// A block chain filled front to back: every block but `last` is full,
  /// so entry i sits at offset i % kPerBlock of the (i / kPerBlock)-th
  /// block, and append / swap-remove touch only `last`. One calendar
  /// bucket, rung sub-bucket or the overflow tier.
  struct Lane {
    std::uint32_t first = kNil;
    std::uint32_t last = kNil;
    std::uint32_t count = 0;
  };

  Entry* block(std::uint32_t b) {
    return chunks_[b >> kChunkBits][b & ((1u << kChunkBits) - 1)].entries;
  }
  Entry& entry_at(std::uint32_t idx) {
    return block(idx / kPerBlock)[idx % kPerBlock];
  }

  // ---- residence encoding (positions_) --------------------------------------
  // positions_[slot] = bucket tag | index. The tag (high 32 bits) is 0 for
  // the overflow lane, (b+1) << 32 for wheel bucket b, kRungBit | (b+1) <<
  // 32 for rung bucket b; the index is the pool index (block · 32 + offset)
  // in a chain, or a head-vector index — unchecked once later head inserts
  // or erases shift it, so removal verifies the slot first.
  static constexpr std::uint64_t kRungBit = std::uint64_t{1} << 63;
  static std::uint64_t bucket_tag(bool rung, std::size_t bucket) {
    return (rung ? kRungBit : 0) | static_cast<std::uint64_t>(bucket + 1) << 32;
  }
  Lane& bucket_at(std::uint64_t tag) {
    const std::size_t id = static_cast<std::size_t>((tag & ~kRungBit) >> 32);
    if ((tag & kRungBit) != 0) return rung_[id - 1];
    return id == 0 ? overflow_ : wheel_[id - 1];
  }
  /// The live-event counter of the tier a tag names (overflow: none).
  void count_live(std::uint64_t tag, std::ptrdiff_t delta) {
    if ((tag & kRungBit) != 0) {
      rung_live_ += static_cast<std::size_t>(delta);
    } else if (tag != 0) {
      wheel_live_ += static_cast<std::size_t>(delta);
    }
  }
  void set_position(const Entry& e, std::uint64_t pos) {
    if (!e.is_group()) positions_[e.ref()] = pos;
  }

  // ---- calendar-window tuning -----------------------------------------------
  /// Bucket count tracks the population, capped well below the population
  /// at 40k-node scale: the limiting resource is the cache working set of
  /// ACTIVE bucket tails (the delivery band sweeps them on every insert),
  /// not the ordering of the drain bucket, which is linear in its entries
  /// (distribution pass + exact pass). 2^14 × wider buckets beat 2^17 ×
  /// narrow ones by ~15% end-to-end on the 40k torus.
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 14;
  /// The window is stretched this far past the span observed at reseed.
  /// The span of the in-flight population equals the push horizon (delay /
  /// timer bound), so a window of exactly one span would put nearly every
  /// steady-state push just beyond win_end_ — through the overflow tier.
  /// A 2× window keeps about half the pushes in O(1) buckets. The batch
  /// drain made pops cheap, so the binding cost is the cache working set
  /// of active bucket tails: shrinking the window from the previous 3×
  /// bought ~4% end-to-end on the 40k-node torus (an overflow push is a
  /// plain lane append — cheaper than a cold bucket-tail miss), while 1.5×
  /// and 4× both measured worse.
  static constexpr double kWindowStretch = 2.0;
  /// A drain-head bucket larger than this is split into a rung of finer
  /// sub-buckets instead of ordered whole (skew absorption). Ordering a
  /// bucket in place costs a distribution pass, whose bin counts stay
  /// within a few KB up to this size, and an exact pass over ~1 entry per
  /// bin, so the rung only engages on real pile-ups (round-synchronized
  /// delivery bands and reseed transfers put 100s–1000s of events per
  /// bucket; see kRungFanout).
  static constexpr std::size_t kRungSpawnThreshold = 2048;
  /// The distribution pass uses one time bin per entry, up to this many
  /// (rung sub-buckets may hold more entries than kRungSpawnThreshold).
  static constexpr std::size_t kMaxSortBins = kRungSpawnThreshold;
  /// A bin holding more entries than this gets a distribution pass of its
  /// own (see distribute).
  static constexpr std::size_t kCrowdedBin = 32;
  /// Sub-buckets target ~kRungFanout events each: fine enough that
  /// ordering a sub-bucket is trivial, coarse enough that draining the rung
  /// does not degenerate into scanning thousands of empty sub-buckets.
  static constexpr std::size_t kRungFanout = 16;
  static constexpr std::size_t kRungMaxBuckets = 4096;

  static bool earlier(const Entry& a, const Entry& b) {
    // Branchless: drain-sort order is data-random, so a short-circuit here
    // is a guaranteed misprediction fountain.
    return (a.at < b.at) | ((a.at == b.at) & (a.key < b.key));
  }
  /// The head vector's order: descending (time, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return earlier(b, a);
    }
  };

  std::uint32_t acquire_slot();
  void bump_generation(std::uint32_t slot) {
    if (++slots_[slot].gen == 0) slots_[slot].gen = 1;  // 0 is the null id
  }
  /// Decodes a live id into its slot index, or returns false.
  bool decode_live(EventId id, std::uint32_t& slot) const;
  /// Takes the next sequence number (and `count − 1` after it).
  std::uint64_t take_seqs(std::size_t count) {
    const std::uint64_t seq = next_seq_;
    next_seq_ += count;
    FTGCS_ASSERT(next_seq_ < (std::uint64_t{1} << kSeqBits));
    return seq;
  }
  void fill_fired(const Entry& head, Fired& out);

  // ---- group records (schedule_fire_only_group) ------------------------------
  /// Decodes a group entry's payload from its record: the delivery index
  /// (seq − base_seq) selects the destination, everything else is the
  /// group's shared state.
  void group_payload(const Entry& e, EventPayload& pl) const {
    const GroupRec& g = groups_[e.ref() - kGroupBase];
    const std::uint64_t idx = (e.key >> kRefBits) - g.base_seq;
    pl.a = g.a;
    pl.b = g.b;
    pl.c = idx == 0 ? g.first_dest : g.rest[idx - 1];
    pl.d = g.d;
    pl.x = 0.0;  // x ≠ 0 events take the slotted path
  }
  std::uint32_t group_sink_kind(const Entry& e) const {
    return groups_[e.ref() - kGroupBase].sink_kind;
  }
  /// One delivery of the group left the queue; the record is recycled when
  /// the last one goes.
  void group_retire(const Entry& e) {
    const std::uint32_t gid = e.ref() - kGroupBase;
    if (--groups_[gid].live == 0) free_gids_.push_back(gid);
  }

  // ---- ladder tier helpers (event_queue.cpp) --------------------------------
  // Entries travel by value: in registers, where a reference would spill
  // them to the stack and read them back with one 16-byte load that the
  // two 8-byte stores cannot forward.
  void insert_ladder(Entry entry);
  /// Adds to `bucket` (the head vector if it is the drain head).
  void lane_insert(Lane& bucket, std::uint64_t tag, Entry entry);
  /// Appends to `lane`'s tail block, linking in a free block when it is
  /// full. Returns the entry's pool index.
  std::uint32_t lane_append(Lane& lane, Entry entry);
  void release(std::uint32_t b) { free_blocks_[free_top_++] = b; }
  [[gnu::noinline]] void grow_pool();
  /// Allocates chunks (and table capacity) for a pool of `blocks` blocks.
  void reserve_pool(std::size_t blocks);
  /// Calls f(data, n) on each block's run of `lane`'s entries, in order.
  template <typename F>
  void visit(const Lane& lane, F&& f);
  /// The earliest and the latest time in `lane`.
  std::pair<Time, Time> time_span(const Lane& lane);
  /// Hands a lane's entries to f(entry) in order, recycling each block
  /// once read; the lane ends empty.
  template <typename F>
  void drain_chain(Lane& lane, F&& f);
  /// Removes the (slotted) entry of `slot` from wherever it lives.
  void remove_resident(std::uint32_t slot);
  /// Ensures the head vector holds the sorted, non-empty drain bucket.
  /// Advances the window, spawns rungs, and reseeds from the overflow tier
  /// as needed. Returns false iff the queue is empty.
  bool prepare_head();
  /// The distribution pass: writes the n entries that each(f) yields (in
  /// the same order every call) to dst[0, n), descending by time bin, and
  /// with `refine` gives every crowded bin a second pass. Returns false,
  /// writing nothing, if their span has no usable bins.
  template <typename Each>
  bool distribute(Each each, Entry* dst, std::size_t n, bool refine);
  /// Moves `bucket` into the (empty) head vector in descending order and
  /// makes it the drain head, recycling its blocks.
  void materialize(Lane& bucket);
  /// Splits the wheel bucket `bucket` into the rung's sub-bucket lanes.
  void spawn_rung(Lane& bucket);
  void reseed();

  std::vector<Slot> slots_;
  /// Residence of each slot's entry (see encoding above), parallel to
  /// slots_ but kept separate: bucket moves touch only this dense array,
  /// not the fat slot records.
  std::vector<std::uint64_t> positions_;
  std::vector<std::uint32_t> free_;
  /// Pooled group records, indexed by ref − kGroupBase; recycled through
  /// free_gids_ when the last live delivery of a group is popped. Only
  /// destroyed wholesale — the borrowed `rest` pointers are never
  /// dereferenced at destruction, so queue teardown is independent of the
  /// callers' adjacency lifetime.
  std::vector<GroupRec> groups_;
  std::vector<std::uint32_t> free_gids_;
  std::uint64_t next_seq_ = 1;

  // ---- calendar window ------------------------------------------------------
  std::vector<Lane> wheel_;     ///< active buckets: indices [0, wheel_nb_)
  std::size_t wheel_nb_ = 0;    ///< buckets in the current window
  std::size_t wheel_cur_ = 0;   ///< current drain bucket
  Time win_start_ = 0.0;        ///< window origin (bucket 0 lower bound)
  Time win_end_ = 0.0;          ///< exclusive upper bound; beyond → overflow
  double bucket_width_ = 1.0;
  std::size_t wheel_live_ = 0;

  std::vector<Lane> rung_;      ///< one-level fine split of the drain bucket
  std::size_t rung_nb_ = 0;
  std::size_t rung_cur_ = 0;
  Time rung_start_ = 0.0;
  double rung_width_ = 1.0;
  std::size_t rung_live_ = 0;
  bool rung_active_ = false;

  Lane overflow_;  ///< unsorted far-future lane (tag 0)

  /// Block pool shared by every lane, in fixed 32 KB chunks that never
  /// move and stay below malloc's mmap threshold (one growing vector made
  /// every short-lived queue page-fault its pool in again). `links_` has
  /// one entry per pool block; free blocks are the LIFO stack
  /// free_blocks_[0, free_top_), sized with the pool, and the next insert
  /// reuses the block the last drain released, still cache-hot.
  static constexpr unsigned kChunkBits = 6;
  static constexpr std::size_t kChunkBlocks = std::size_t{1} << kChunkBits;
  std::vector<std::unique_ptr<Block[]>> chunks_;
  std::vector<Link> links_;
  std::vector<std::uint32_t> free_blocks_;
  std::size_t free_top_ = 0;
  std::size_t lanes_live_ = 0;  ///< lanes holding at least one block

  /// The drain head: the entries of bucket `head_` (whose lane is empty),
  /// always sorted descending. Reseed and rung spawn empty it.
  Lane* head_ = nullptr;
  std::vector<Entry> drain_;
  /// Distribution-pass bin offsets, one vector per pass level (≤
  /// kMaxSortBins; prewarm reserves them), and a crowded bin's copy.
  std::array<std::vector<std::uint32_t>, 2> sort_bins_;
  std::vector<Entry> scratch_;

  TierStats stats_;
};

// ---- inline hot path --------------------------------------------------------
// The fire loop runs millions of times per simulated second; defining it
// here lets the Simulator's run loop inline the whole pop path.

inline void EventQueue::fill_fired(const Entry& head, Fired& out) {
  out.at = head.at;
  if (head.is_group()) {
    // Decodes through the group record and RETIRES the delivery (the
    // caller is about to pop it); gid reuse cannot bite because the
    // fields are read before the record is freed.
    out.id = EventId{0};
    const std::uint32_t sk = group_sink_kind(head);
    out.kind = static_cast<EventKind>(sk & 0xffu);
    out.sink = sk >> 8;
    group_payload(head, out.payload);
    group_retire(head);
    return;
  }
  const std::uint32_t slot = head.ref();
  Slot& s = slots_[slot];
  out.id = EventId{(static_cast<std::uint64_t>(slot) + 1) << 32 | s.gen};
  out.kind = s.kind();
  out.sink = s.sink();
  out.payload = s.payload;
  bump_generation(slot);  // the id is spent: cancel-after-fire no-ops
  free_.push_back(slot);
}

inline bool EventQueue::pop_if_at_most(Time t_end, Fired& out) {
  // The head vector is sorted descending, so the head is one back() read
  // and the pop one pop_back.
  if (drain_.empty() && !prepare_head()) return false;
  const std::size_t n = drain_.size();
  const Entry& head = drain_[n - 1];
  if (head.at > t_end) return false;
  if (n >= 2 && !drain_[n - 2].is_group()) {
    // The next pop's slot record is a random access into a multi-MB
    // pool; start pulling it while this event is dispatched.
    __builtin_prefetch(&slots_[drain_[n - 2].ref()], 1);
  }
  fill_fired(head, out);
  drain_.pop_back();
  if (rung_active_) {
    --rung_live_;
  } else {
    --wheel_live_;
  }
  return true;
}

inline std::size_t EventQueue::pop_run(Time t_end, std::uint32_t sink_kind,
                                       BatchPredicate pred, const void* ctx,
                                       BatchedEvent* out, std::size_t max) {
  std::size_t n = 0;
  // The head vector is sorted descending, so a matching run is a
  // contiguous suffix of it: walk the tail, then retire the run with ONE
  // resize and one live-counter update per bucket instead of per event.
  // The run keeps flowing across bucket (and rung/reseed) boundaries
  // through prepare_head().
  while (n < max) {
    if (drain_.empty() && !prepare_head()) break;
    const std::size_t m = drain_.size();
    std::size_t took = 0;
    bool mismatch = false;
    while (n + took < max && took < m) {
      const Entry& e = drain_[m - 1 - took];
      if (e.at > t_end || !e.is_group() || group_sink_kind(e) != sink_kind) {
        mismatch = true;
        break;
      }
      BatchedEvent& slot = out[n + took];
      slot.at = e.at;
      group_payload(e, slot.payload);
      if (!pred(slot.payload, ctx)) {
        mismatch = true;
        break;
      }
      group_retire(e);
      ++took;
    }
    if (took != 0) {
      drain_.resize(m - took);  // Entry is trivially destructible
      if (rung_active_) {
        rung_live_ -= took;
      } else {
        wheel_live_ -= took;
      }
      n += took;
    }
    if (mismatch || took != m) break;  // non-matching head (or max)
  }
  stats_.ordered_run_events += n;
  return n;
}

}  // namespace ftgcs::sim
