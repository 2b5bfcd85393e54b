#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ftgcs::sim {

void EventQueue::reserve(std::size_t capacity) {
  slots_.reserve(capacity);
  fns_.reserve(capacity);
  positions_.reserve(capacity);
  free_.reserve(capacity);
  // Blocks for `capacity` dense wide entries; sparse tails come on demand.
  reserve_pool(capacity / kPerBlock<Entry> + 2);
  wheel_.reserve(std::min(capacity, kMaxBuckets));
}

void EventQueue::prewarm() {
  // ×2: window drift can pile the live set above the warmup high-water.
  reserve_pool(2 * links_.size());
  head_wide_.reserve(2 * head_wide_.capacity());
  head_narrow_.reserve(2 * head_narrow_.capacity());
  unordered_decode_.reserve(2 * unordered_decode_.capacity());
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    if (!free_.empty()) {
      // The next schedule's slot record is a random access into the pool;
      // start pulling it while this event is being filled in.
      __builtin_prefetch(&slots_[free_.back()], 1);
    }
    return slot;
  }
  slots_.emplace_back();
  fns_.emplace_back();
  positions_.push_back(0);
  FTGCS_ASSERT(slots_.size() < kInlineBase);  // inline range stays unused
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

bool EventQueue::decode_live(EventId id, std::uint32_t& slot) const {
  if (!id) return false;
  slot = static_cast<std::uint32_t>(id.value >> 32) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value);
  return slot < slots_.size() && slots_[slot].gen == gen;
}

void EventQueue::reserve_pool(std::size_t blocks) {
  links_.reserve(blocks);
  free_blocks_.reserve(blocks);
  while (chunks_.size() << kChunkBits < blocks) {
    chunks_.push_back(std::make_unique<Block[]>(kChunkBlocks));
  }
}

void EventQueue::grow_pool() {
  do {  // the first growth also creates the kNil sentinel
    if (links_.size() == chunks_.size() << kChunkBits) {
      chunks_.push_back(std::make_unique<Block[]>(kChunkBlocks));
    }
    links_.emplace_back();
    free_blocks_.push_back(0);
  } while (links_.size() < 2);
  // Pool indices of wide entries (block · 16 + offset) fill 32 bits.
  FTGCS_ASSERT(links_.size() <= (std::size_t{1} << 28));
  release(static_cast<std::uint32_t>(links_.size() - 1));
  stats_.lane_peak_lanes = lanes_live_ + 1;  // + the lane taking the block
  stats_.lane_peak_live = size() + 1;
}

template <typename T>
inline std::uint32_t EventQueue::lane_append(Lane& lane, const T& entry) {
  const std::uint32_t off = lane.count % kPerBlock<T>;
  if (off == 0) {
    // The tail block is full (or the lane is empty): link in the free
    // stack's top block, the one most recently drained.
    if (free_top_ == 0) grow_pool();
    const std::uint32_t b = free_blocks_[--free_top_];
    links_[b] = Link{kNil, lane.last};
    if (lane.count == 0) {
      lane.first = b;
      ++lanes_live_;
    } else {
      links_[lane.last].next = b;
    }
    lane.last = b;
  }
  ++lane.count;
  block<T>(lane.last)[off] = entry;
  return lane.last * kPerBlock<T> + off;
}

void EventQueue::lane_truncate(Lane& lane, std::uint32_t keep,
                               std::uint32_t keep_last) {
  for (std::uint32_t b = keep == 0 ? lane.first : links_[keep_last].next;
       b != kNil; b = links_[b].next) {
    release(b);
  }
  if (keep == 0) {
    lane = Lane{};
    --lanes_live_;
    return;
  }
  links_[keep_last].next = kNil;
  lane.last = keep_last;
  lane.count = keep;
}

template <typename T>
std::uint32_t EventQueue::head_append(const T& entry) {
  // The next pop re-sorts this head lane (the other keeps its flag).
  std::vector<T>& head = head_vec<T>();
  head.push_back(entry);
  (kWide<T> ? head_sorted_wide_ : head_sorted_narrow_) = false;
  return static_cast<std::uint32_t>(head.size() - 1);
}

template <typename T>
inline void EventQueue::lane_insert(Bucket& bucket, std::uint64_t tag,
                                    const T& entry) {
  const std::uint32_t idx = &bucket == head_
                                ? head_append(entry)
                                : lane_append(lane_of<T>(bucket), entry);
  set_position(entry, tag | idx);
  // The inserted entry may be non-drainable: the horizon-scan cache drops.
  bucket.scan_valid = false;
  count_live(tag, 1);
}

template <typename T, typename F>
void EventQueue::visit(Bucket& bucket, F&& f) {
  if (&bucket == head_) {
    f(head_vec<T>().data(), head_vec<T>().size());
    return;
  }
  const Lane& lane = lane_of<T>(bucket);
  std::uint32_t left = lane.count;
  for (std::uint32_t b = lane.first; b != kNil; b = links_[b].next) {
    const std::uint32_t n = std::min(left, kPerBlock<T>);
    f(static_cast<const T*>(block<T>(b)), std::size_t{n});
    left -= n;
  }
}

template <typename T, typename F>
void EventQueue::drain_chain(Lane& lane, F&& f) {
  // A block is released only once read: f may take it straight back.
  const Lane src = lane;
  lane = Lane{};
  std::uint32_t left = src.count;
  for (std::uint32_t b = src.first; b != kNil;) {
    const std::uint32_t n = std::min(left, kPerBlock<T>);
    for (std::uint32_t i = 0; i < n; ++i) f(T(block<T>(b)[i]));
    left -= n;
    const std::uint32_t next = links_[b].next;
    release(b);
    b = next;
  }
  if (src.count != 0) --lanes_live_;  // counted while its blocks were held
}

namespace {

/// Clamped bucket index for a bucket offset. `!(off < hi)` (not `>=`)
/// deliberately catches NaN and +inf as well: offsets of events scheduled
/// at kTimeInfinity (or computed against an infinite-width degenerate
/// window) land in the last bucket, whose drain sort still pops them in
/// exact (time, seq) order.
std::size_t clamp_bucket_index(double off, std::size_t lo, std::size_t hi) {
  if (!(off < static_cast<double>(hi))) return hi;
  if (off <= static_cast<double>(lo)) return lo;
  return static_cast<std::size_t>(off);
}

}  // namespace

template <typename T>
void EventQueue::insert_ladder(const T& entry) {
  // An empty window accepts nothing: pushes accumulate in the overflow
  // lane and the next pop reseeds a fresh window around them. This keeps
  // the one invariant everything rests on — every overflow entry is
  // (time, seq)-after every window entry. Wide and narrow entries share
  // the routing, so a narrow delivery lands in exactly the bucket (and
  // fires in exactly the order) its 32-byte twin would have.
  if (entry.at >= win_end_ || wheel_live_ + rung_live_ == 0) {
    // Unsorted: a push is one append, a removal one swap-remove, a
    // far-future re-aim an in-place overwrite.
    lane_insert(overflow_, 0, entry);
    ++stats_.overflow_pushes;
    stats_.overflow_peak = std::max(stats_.overflow_peak, overflow_size());
    return;
  }
  // Clamping low to the drain bucket (including times below the window
  // origin, which are legal at queue level) preserves exact pop order:
  // the drain bucket re-sorts, and everything earlier has already fired.
  const std::size_t index =
      clamp_bucket_index((entry.at - win_start_) / bucket_width_, wheel_cur_,
                         wheel_nb_ - 1);
  if (index == wheel_cur_ && rung_active_) {
    const std::size_t sub =
        clamp_bucket_index((entry.at - rung_start_) / rung_width_, rung_cur_,
                           rung_nb_ - 1);
    lane_insert(rung_[sub], bucket_tag(/*rung=*/true, sub), entry);
    return;
  }
  lane_insert(wheel_[index], bucket_tag(/*rung=*/false, index), entry);
}

void EventQueue::insert_ladder_group(Time base, const Duration* delays,
                                     std::size_t count, EventKind kind,
                                     SinkId sink, const EventPayload& proto,
                                     std::int32_t first_dest,
                                     const std::int32_t* rest_dests) {
  std::uint32_t gid;
  if (!free_gids_.empty()) {
    gid = free_gids_.back();
    free_gids_.pop_back();
  } else {
    gid = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
    // gids ride in the entry key's slot field; keep them out of the
    // inline-sentinel range so a narrow key can never read as inline.
    FTGCS_ASSERT(groups_.size() < kInlineBase);
  }
  GroupRec& g = groups_[gid];
  g.base_seq = next_seq_;
  g.rest = rest_dests;
  g.first_dest = first_dest;
  g.a = proto.a;
  g.b = proto.b;
  g.d = proto.d;
  g.sink_kind = sink << 8 | static_cast<std::uint32_t>(kind);
  g.live = static_cast<std::uint32_t>(count);
  // One bump of `count`: delivery i gets base_seq + i, exactly the seqs
  // `count` sequential schedule_fire_only calls would have consumed.
  next_seq_ += count;
  FTGCS_ASSERT(next_seq_ < (std::uint64_t{1} << kSeqBits));
  ++stats_.group_inserts;
  stats_.narrow_events += count;
  NarrowEntry e;
  for (std::size_t i = 0; i < count; ++i) {
    FTGCS_EXPECTS(delays[i] >= 0.0);
    e.at = base + delays[i];
    e.key = (g.base_seq + i) << kSlotBits | gid;
    insert_ladder(e);
  }
}

void EventQueue::remove_resident(std::uint32_t slot) {
  const std::uint64_t pos = positions_[slot];
  const std::uint64_t tag = pos & ~std::uint64_t{0xffffffff};
  std::uint32_t idx = static_cast<std::uint32_t>(pos);
  Bucket& bucket = bucket_at(tag);
  if (&bucket == head_) {
    if (idx >= head_wide_.size() || head_wide_[idx].slot() != slot) {
      // The recorded index went stale when the bucket moved into the head
      // (or the head was sorted); locate the entry by its unique slot.
      idx = 0;
      while (head_wide_[idx].slot() != slot) ++idx;
    }
    const Entry moved = head_wide_.back();
    head_wide_.pop_back();
    if (idx < head_wide_.size()) {
      head_wide_[idx] = moved;
      set_position(moved, tag | idx);
    }
    head_sorted_wide_ = false;  // a swap-remove breaks the wide drain order
  } else {
    Lane& lane = bucket.wide;
    const std::uint32_t back = lane.last * kPerBlock<Entry> +
                               (lane.count - 1) % kPerBlock<Entry>;
    if (idx != back) {
      const Entry& moved = wide_at(idx) = wide_at(back);
      set_position(moved, tag | idx);
    }
    if (--lane.count % kPerBlock<Entry> == 0) {  // the tail block emptied
      lane_truncate(lane, lane.count, links_[lane.last].prev);
    }
  }
  bucket.scan_valid = false;
  count_live(tag, -1);
}

void EventQueue::materialize(Bucket& bucket) {
  drain_chain<Entry>(bucket.wide,
                     [&](const Entry& e) { head_wide_.push_back(e); });
  drain_chain<NarrowEntry>(
      bucket.narrow, [&](const NarrowEntry& e) { head_narrow_.push_back(e); });
  head_ = &bucket;
  head_sorted_wide_ = false;
  head_sorted_narrow_ = false;
}

void EventQueue::spawn_rung() {
  // Splits the (wheel) drain head into the rung's sub-bucket lanes.
  const std::size_t n = head_size();
  rung_nb_ = std::clamp(n / kRungFanout, kMinBuckets, kMaxRungBuckets);
  if (rung_.size() < rung_nb_) rung_.resize(rung_nb_);
  Time tmin = head_wide_.empty() ? head_narrow_.front().at
                                 : head_wide_.front().at;
  Time tmax = tmin;
  const auto span = [&](const auto& lane) {
    for (const auto& e : lane) {
      tmin = std::min(tmin, e.at);
      tmax = std::max(tmax, e.at);
    }
  };
  span(head_wide_);
  span(head_narrow_);
  if (!std::isfinite(tmin)) tmin = 0.0;  // see reseed(): avoid NaN offsets
  rung_start_ = tmin;
  rung_width_ = std::max((tmax - tmin) / static_cast<double>(rung_nb_),
                         std::max(std::abs(tmin), 1.0) * 1e-15);
  head_ = nullptr;  // the entries go to rung chains, not back to the head
  const auto split = [&](const auto& lane) {
    for (const auto& e : lane) {
      const std::size_t sub = clamp_bucket_index(
          (e.at - rung_start_) / rung_width_, 0, rung_nb_ - 1);
      lane_insert(rung_[sub], bucket_tag(/*rung=*/true, sub), e);
    }
  };
  split(head_wide_);
  split(head_narrow_);
  head_wide_.clear();
  head_narrow_.clear();
  wheel_live_ -= n;  // lane_insert counted them into rung_live_
  rung_cur_ = 0;
  rung_active_ = true;
  ++stats_.rung_spawns;
}

void EventQueue::reseed() {
  FTGCS_ASSERT(wheel_live_ == 0 && rung_live_ == 0 && overflow_size() != 0);
  head_ = nullptr;
  rung_active_ = false;
  const std::size_t n = overflow_size();
  Time tmin = overflow_.wide.count == 0
                  ? block<NarrowEntry>(overflow_.narrow.first)[0].at
                  : block<Entry>(overflow_.wide.first)[0].at;
  Time tmax = tmin;
  const auto span = [&](const auto* d, std::size_t m) {
    for (std::size_t i = 0; i < m; ++i) {
      tmin = std::min(tmin, d[i].at);
      tmax = std::max(tmax, d[i].at);
    }
  };
  visit<Entry>(overflow_, span);
  visit<NarrowEntry>(overflow_, span);
  wheel_nb_ = std::clamp(n, kMinBuckets, kMaxBuckets);
  if (wheel_.size() < wheel_nb_) wheel_.resize(wheel_nb_);
  // Events at kTimeInfinity (legal, if unusual) would make every offset
  // NaN if the window originated at infinity; origin 0 keeps their
  // offsets +inf instead, which clamp_bucket_index sends to the last
  // bucket — still exact (time, seq) pop order.
  if (!std::isfinite(tmin)) tmin = 0.0;
  // Auto-tune: a few events per bucket at the observed density, with the
  // window stretched kWindowStretch past the span so steady-state pushes
  // keep landing in buckets (see the constant's comment). The width floor
  // keeps indices finite when the whole population shares one timestamp
  // (relative epsilon, so 1e9-scale horizons still resolve).
  bucket_width_ =
      std::max(kWindowStretch * (tmax - tmin) / static_cast<double>(wheel_nb_),
               std::max(std::abs(tmin), 1.0) * 1e-15);
  win_start_ = tmin;
  win_end_ = win_start_ + bucket_width_ * static_cast<double>(wheel_nb_);
  wheel_cur_ = 0;
  // One linear pass, recycling each overflow block once its entries have
  // landed: the transfer peaks at about the live set, not twice it.
  const auto place = [&](const auto& e) {
    using T = std::remove_cv_t<std::remove_reference_t<decltype(e)>>;
    const std::size_t index = clamp_bucket_index(
        (e.at - win_start_) / bucket_width_, 0, wheel_nb_ - 1);
    Bucket& bucket = wheel_[index];
    set_position(e, bucket_tag(/*rung=*/false, index) |
                        lane_append(lane_of<T>(bucket), e));
    bucket.scan_valid = false;
  };
  // Taken out first, so size() reads n throughout the scatter.
  Lane wide = std::exchange(overflow_.wide, Lane{});
  Lane narrow = std::exchange(overflow_.narrow, Lane{});
  wheel_live_ = n;
  drain_chain<Entry>(wide, place);
  drain_chain<NarrowEntry>(narrow, place);
  ++stats_.reseeds;
  stats_.bucket_count = std::max(stats_.bucket_count, wheel_nb_);
}

bool EventQueue::prepare_head() {
  for (;;) {
    if (head_ != nullptr && head_size() != 0) {
      if (head_sorted()) return true;
      if (!rung_active_ && head_size() > kRungSpawnThreshold) {
        spawn_rung();
        continue;
      }
      // Descending (time, seq), so pops are pop_back and cancel stays a
      // swap-remove. Positions are NOT rewritten (a random write per event
      // into the multi-MB positions_); removal verifies the slot instead.
      // A clean lane keeps its order.
      const auto later = [](const auto& a, const auto& b) {
        return earlier(b, a);
      };
      if (!head_sorted_wide_) {
        std::sort(head_wide_.begin(), head_wide_.end(), later);
      }
      if (!head_sorted_narrow_) {
        std::sort(head_narrow_.begin(), head_narrow_.end(), later);
      }
      head_sorted_wide_ = true;
      head_sorted_narrow_ = true;
      return true;
    }
    head_ = nullptr;
    if (rung_active_) {
      while (rung_cur_ < rung_nb_ && bucket_empty(rung_[rung_cur_])) {
        ++rung_cur_;
      }
      if (rung_cur_ < rung_nb_) {
        materialize(rung_[rung_cur_]);
        continue;
      }
      rung_active_ = false;
      ++wheel_cur_;
    }
    while (wheel_cur_ < wheel_nb_ && bucket_empty(wheel_[wheel_cur_])) {
      ++wheel_cur_;
    }
    if (wheel_cur_ < wheel_nb_) {
      materialize(wheel_[wheel_cur_]);
      continue;
    }
    if (overflow_size() == 0) return false;
    reseed();
  }
}

Time EventQueue::next_time() const {
  // Sorting the drain bucket is logically const: the live event set and
  // the pop order are unchanged.
  EventQueue& self = const_cast<EventQueue&>(*this);
  if (!self.prepare_head()) return kTimeInfinity;
  if (!head_narrow_.empty() &&
      (head_wide_.empty() || earlier(head_narrow_.back(), head_wide_.back()))) {
    return head_narrow_.back().at;
  }
  return head_wide_.back().at;
}

EventId EventQueue::push_entry(Time t, std::uint32_t slot) {
  const std::uint64_t seq = next_seq_++;
  FTGCS_ASSERT(seq < (std::uint64_t{1} << kSeqBits));
  ++stats_.wide_events;
  Entry entry;
  entry.at = t;
  entry.key = seq << kSlotBits | slot;
  insert_ladder(entry);
  return EventId{(static_cast<std::uint64_t>(slot) + 1) << 32 |
                 slots_[slot].gen};
}

EventId EventQueue::schedule(Time t, Callback fn) {
  FTGCS_EXPECTS(fn != nullptr);
  const std::uint32_t slot = acquire_slot();
  slots_[slot].set(EventKind::kClosure, 0);
  fns_[slot] = std::move(fn);
  return push_entry(t, slot);
}

EventId EventQueue::schedule_typed(Time t, EventKind kind, SinkId sink,
                                   const EventPayload& payload) {
  FTGCS_EXPECTS(kind != EventKind::kClosure);
  FTGCS_EXPECTS(sink < (1u << 24));  // packed next to the kind tag
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.set(kind, sink);
  s.payload = payload;
  return push_entry(t, slot);
}

void EventQueue::schedule_fire_only(Time t, EventKind kind, SinkId sink,
                                    const EventPayload& payload) {
  FTGCS_EXPECTS(kind != EventKind::kClosure);
  FTGCS_EXPECTS(sink < (1u << 24));
  if (payload.x != 0.0 || payload.d >= 256) {
    // The 32-byte inline entry has no room for payload.x (or a d tag
    // beyond the inline range): those events take the slotted path with
    // identical (time, seq) semantics (the returned id is simply dropped
    // — fire-only ids are unobservable).
    schedule_typed(t, kind, sink, payload);
    return;
  }
  const std::uint64_t seq = next_seq_++;
  FTGCS_ASSERT(seq < (std::uint64_t{1} << kSeqBits));
  ++stats_.wide_events;
  Entry entry;
  entry.at = t;
  entry.key = seq << kSlotBits | (kInlineBase + payload.d);
  entry.a = payload.a;
  entry.b = payload.b;
  entry.c = payload.c;
  entry.sink_kind = sink << 8 | static_cast<std::uint32_t>(kind);
  insert_ladder(entry);
}

void EventQueue::schedule_fire_only_group(Time base, const Duration* delays,
                                          std::size_t count, EventKind kind,
                                          SinkId sink,
                                          const EventPayload& proto,
                                          std::int32_t first_dest,
                                          const std::int32_t* rest_dests) {
  FTGCS_EXPECTS(kind != EventKind::kClosure);
  FTGCS_EXPECTS(sink < (1u << 24));
  if (count == 0) return;
  if (proto.x != 0.0) {
    // x ≠ 0 has no home in the group record. The per-delivery fallback
    // consumes sequence numbers in exactly the same order, so the pop
    // sequence is unchanged.
    EventPayload pl = proto;
    for (std::size_t i = 0; i < count; ++i) {
      pl.c = i == 0 ? first_dest : rest_dests[i - 1];
      schedule_fire_only(base + delays[i], kind, sink, pl);
    }
    return;
  }
  insert_ladder_group(base, delays, count, kind, sink, proto, first_dest,
                      rest_dests);
}

bool EventQueue::cancel(EventId id) {
  std::uint32_t slot;
  if (!decode_live(id, slot)) return false;
  remove_resident(slot);
  bump_generation(slot);
  if (slots_[slot].kind() == EventKind::kClosure) fns_[slot] = nullptr;
  free_.push_back(slot);
  return true;
}

bool EventQueue::reschedule(EventId id, Time t) {
  std::uint32_t slot;
  if (!decode_live(id, slot)) return false;
  // Fresh sequence number: ties at the new time fire after everything
  // already scheduled there, exactly as a cancel + schedule would.
  const std::uint64_t seq = next_seq_++;
  FTGCS_ASSERT(seq < (std::uint64_t{1} << kSeqBits));
  const std::uint64_t key = seq << kSlotBits | slot;
  const std::uint64_t pos = positions_[slot];
  const std::uint64_t tag = pos & ~std::uint64_t{0xffffffff};
  const std::uint32_t idx = static_cast<std::uint32_t>(pos);
  if (tag == 0 && (t >= win_end_ || wheel_live_ + rung_live_ == 0)) {
    // Overflow entry staying in the overflow lane: the lane is unsorted,
    // so a far-future timer re-aim is one in-place overwrite.
    Entry& entry = wide_at(idx);
    entry.at = t;
    entry.key = key;
    return true;
  }
  if (tag != 0 && (tag & kRungBit) == 0 && t < win_end_) {
    // Timer re-aims move fire times by O(rho) — almost always within the
    // same bucket. Overwriting in place (the drain sort orders it) skips
    // the swap-remove + reinsert round trip. Buckets past the drain head
    // are chains, whose positions are exact.
    const std::size_t bucket_index = static_cast<std::size_t>(tag >> 32) - 1;
    const double off = (t - win_start_) / bucket_width_;
    if (bucket_index > wheel_cur_ &&
        off >= static_cast<double>(bucket_index) &&
        off < static_cast<double>(bucket_index + 1)) {
      Entry& entry = wide_at(idx);
      FTGCS_ASSERT(entry.slot() == slot);
      entry.at = t;
      entry.key = key;
      wheel_[bucket_index].scan_valid = false;
      return true;
    }
  }
  remove_resident(slot);
  Entry entry;
  entry.at = t;
  entry.key = key;
  insert_ladder(entry);
  return true;
}

template <typename T, typename Take>
std::size_t EventQueue::compact(Bucket& bucket, std::uint64_t tag,
                                Take&& take) {
  // The write cursor chases the read cursor; kept entries that move get
  // their positions rewritten (they may later be cancelled or re-aimed).
  if (&bucket == head_) {
    std::vector<T>& v = head_vec<T>();
    std::uint32_t w = 0;
    for (std::uint32_t r = 0; r < v.size(); ++r) {
      if (take(v[r], r)) continue;
      if (w != r) {
        v[w] = v[r];
        set_position(v[w], tag | w);
      }
      ++w;
    }
    const std::size_t took = v.size() - w;
    v.resize(w);  // trivially destructible; order (and the flag) survives
    return took;
  }
  constexpr std::uint32_t kPer = kPerBlock<T>;
  Lane& lane = lane_of<T>(bucket);
  std::uint32_t rb = lane.first;
  std::uint32_t wb = lane.first;
  std::uint32_t w = 0;
  for (std::uint32_t r = 0; r < lane.count; ++r) {
    if (r != 0 && r % kPer == 0) rb = links_[rb].next;
    const T& e = block<T>(rb)[r % kPer];
    if (take(e, r)) continue;
    if (w != 0 && w % kPer == 0) wb = links_[wb].next;
    if (w != r) {
      T& dst = block<T>(wb)[w % kPer];
      dst = e;
      set_position(dst, tag | (wb * kPer + w % kPer));
    }
    ++w;
  }
  const std::size_t took = lane.count - w;
  if (took != 0) lane_truncate(lane, w, wb);  // frees the emptied tail
  return took;
}

std::size_t EventQueue::pop_run_unordered(Time t_end, std::uint32_t sink_kind,
                                          BatchPredicate pred, const void* ctx,
                                          BatchedEvent* out, std::size_t max) {
  std::size_t n = 0;
  // Running partition horizon: the earliest non-drainable entry seen so
  // far. Emission is STRICT (`at < bad_lim`): ties with a barrier keep
  // their (time, seq) interleaving on the ordered path, so only events
  // whose relative order is provably unobservable are reordered.
  Time bad_lim = kTimeInfinity;

  // Sweeps one bucket: refreshes its horizon scan if stale, emits every
  // drainable entry strictly below min(horizon, t_end), and compacts the
  // survivors in place (rewriting their positions — unlike the drain
  // sort, compaction moves entries that may later be cancelled or
  // re-aimed). Returns false when the sweep must stop: a sorted
  // (partially drained) head bucket, or the out buffer filled.
  const auto drain_bucket = [&](Bucket& bucket, std::uint64_t tag) -> bool {
    const bool is_head = &bucket == head_;
    if (is_head ? head_size() == 0 : bucket_empty(bucket)) return true;
    if (is_head && head_sorted()) {
      // A partially drained head belongs to the ordered path (its pops
      // are in flight); its minimum is the earlier of the two lanes' back
      // entries, and every later bucket sits at or above this bucket's
      // range — stop here.
      Time head = kTimeInfinity;
      if (!head_wide_.empty()) head = std::min(head, head_wide_.back().at);
      if (!head_narrow_.empty()) head = std::min(head, head_narrow_.back().at);
      bad_lim = std::min(bad_lim, head);
      return false;
    }
    bool decoded = false;  // this call's scan filled unordered_decode_
    if (!bucket.scan_valid) {
      // Pass 1 — horizon scan: the earliest entry that must NOT be
      // reordered. Slotted entries carry sink_kind 0 (never a real
      // channel), so timers/closures/cancellables are caught by the same
      // compare as foreign-channel traffic. The drainable minimum rides
      // along as the repeat-sweep guard below. Narrow decodes (a group
      // record plus a random adjacency read each) are kept for pass 2 —
      // any entry this scan admits, the emit below reuses verbatim.
      Time bad = kTimeInfinity;
      Time good = kTimeInfinity;
      EventPayload pl;
      visit<Entry>(bucket, [&](const Entry* d, std::size_t m) {
        for (const Entry* e = d; e != d + m; ++e) {
          if (e->sink_kind == sink_kind) {
            pl.a = e->a;
            pl.b = e->b;
            pl.c = e->c;
            pl.d = e->inline_d();
            if (pred(pl, ctx)) {
              good = std::min(good, e->at);
              continue;
            }
          }
          bad = std::min(bad, e->at);
        }
      });
      const std::size_t mn0 =
          is_head ? head_narrow_.size() : bucket.narrow.count;
      if (unordered_decode_.size() < mn0) unordered_decode_.resize(mn0);
      EventPayload* dec = unordered_decode_.data();
      visit<NarrowEntry>(bucket, [&](const NarrowEntry* d, std::size_t m) {
        for (const NarrowEntry* e = d; e != d + m; ++e, ++dec) {
          if (narrow_sink_kind(*e) == sink_kind) {
            narrow_payload(*e, *dec);
            if (pred(*dec, ctx)) {
              good = std::min(good, e->at);
              continue;
            }
          }
          bad = std::min(bad, e->at);
        }
      });
      decoded = true;
      bucket.bad_floor = bad;
      bucket.good_floor = good;
      bucket.scan_valid = true;
    }
    const Time lim = std::min(bad_lim, bucket.bad_floor);
    if (bucket.good_floor >= lim || bucket.good_floor > t_end) {
      // Nothing drainable below the horizon: O(1) skip on repeat sweeps
      // (the common shape while the ordered path works toward a barrier).
      bad_lim = std::min(bad_lim, bucket.bad_floor);
      return true;
    }
    // Pass 2 — emit + compact, one lane at a time (emission is unordered,
    // so lane interleaving is free). `lim ≤ bad_floor`, so `at < lim`
    // admits only drainable entries: no predicate re-evaluation here. A
    // full out buffer keeps the rest.
    std::size_t took = compact<Entry>(bucket, tag, [&](const Entry& e,
                                                       std::size_t) {
      if (!(e.at < lim && e.at <= t_end) || n == max) return false;
      BatchedEvent& slot = out[n++];
      slot.at = e.at;
      slot.payload.a = e.a;
      slot.payload.b = e.b;
      slot.payload.c = e.c;
      slot.payload.d = e.inline_d();
      slot.payload.x = 0.0;
      return true;
    });
    took += compact<NarrowEntry>(bucket, tag, [&](const NarrowEntry& e,
                                                  std::size_t r) {
      if (!(e.at < lim && e.at <= t_end) || n == max) return false;
      BatchedEvent& slot = out[n++];
      slot.at = e.at;
      // Everything below lim passed the scan's predicate, so a scan run
      // by THIS call already decoded it (same index — the lane has not
      // been compacted in between). A cached scan means decoding here.
      if (decoded) {
        slot.payload = unordered_decode_[r];
      } else {
        narrow_payload(e, slot.payload);
      }
      narrow_retire(e.key);
      return true;
    });
    count_live(tag, -static_cast<std::ptrdiff_t>(took));
    if (n != max) {
      // Full pass: every drainable entry below min(lim, t_end) was
      // emitted, so the survivors sit at or above that. (On a buffer-full
      // break the old bound is still valid — just looser.)
      bucket.good_floor = std::min(lim, t_end);
    }
    bad_lim = std::min(bad_lim, bucket.bad_floor);
    return n != max;
  };

  // Sweep buckets in calendar order from the current drain position.
  // Bucket b's lower time bound prunes the sweep: entries of every bucket
  // except the drain head itself sit at or above their bucket's origin
  // (inserts floor the offset; only the drain bucket takes low-clamped
  // stragglers), so once a bucket origin reaches min(horizon, t_end)
  // nothing further can be emitted. A non-infinite horizon therefore
  // stops the sweep within one bucket of the barrier — the "sliver" the
  // ordered path still sorts.
  for (;;) {
    if (wheel_live_ + rung_live_ == 0) {
      // Window drained with no barrier found: rebuild it from the
      // overflow tier, exactly as prepare_head would, and keep sweeping.
      if (overflow_size() == 0) break;
      reseed();
    }
    bool cont = true;
    if (rung_active_) {
      for (std::size_t s = rung_cur_; cont && s < rung_nb_; ++s) {
        if (s != rung_cur_) {
          const Time lb =
              rung_start_ + static_cast<double>(s) * rung_width_;
          if (lb > t_end || lb >= bad_lim) {
            cont = false;
            break;
          }
        }
        cont = drain_bucket(rung_[s], bucket_tag(/*rung=*/true, s));
      }
      for (std::size_t b = wheel_cur_ + 1; cont && b < wheel_nb_; ++b) {
        const Time lb = win_start_ + static_cast<double>(b) * bucket_width_;
        if (lb > t_end || lb >= bad_lim) break;
        cont = drain_bucket(wheel_[b], bucket_tag(/*rung=*/false, b));
      }
    } else {
      for (std::size_t b = wheel_cur_; cont && b < wheel_nb_; ++b) {
        if (b != wheel_cur_) {
          const Time lb =
              win_start_ + static_cast<double>(b) * bucket_width_;
          if (lb > t_end || lb >= bad_lim) break;
        }
        cont = drain_bucket(wheel_[b], bucket_tag(/*rung=*/false, b));
      }
    }
    if (!cont || wheel_live_ + rung_live_ != 0) break;
  }
  if (n != 0) {
    ++stats_.unordered_runs;
    stats_.unordered_events += n;
  }
  return n;
}

EventQueue::Fired EventQueue::pop() {
  Fired fired;
  const bool popped = pop_if_at_most(kTimeInfinity, fired);
  FTGCS_EXPECTS(popped);
  return fired;
}

}  // namespace ftgcs::sim
