#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/sort_nearly_sorted.h"

namespace ftgcs::sim {

void EventQueue::reserve(std::size_t capacity) {
  slots_.reserve(capacity);
  positions_.reserve(capacity);
  free_.reserve(capacity);
  // Blocks for `capacity` dense entries; sparse tails come on demand.
  reserve_pool(capacity / kPerBlock + 2);
  wheel_.reserve(std::min(capacity, kMaxBuckets));
}

void EventQueue::prewarm() {
  // ×2: window drift can pile the live set above the warmup high-water.
  slots_.reserve(2 * slots_.size());
  positions_.reserve(slots_.capacity());
  free_.reserve(slots_.capacity());
  reserve_pool(2 * links_.size());
  drain_.reserve(2 * drain_.capacity());
  // The same margin for the window tiers, which a reseed or rung spawn
  // over a larger live set widens, and for the group records; free_gids_
  // can hold every group id, so retiring one never regrows it. The drain
  // head lives in the tier being drained: re-aim it after the move.
  const auto drain_bucket = [this]() -> Lane& {
    return rung_active_ ? rung_[rung_cur_] : wheel_[wheel_cur_];
  };
  const bool has_head = head_ != nullptr;
  FTGCS_ASSERT(!has_head || head_ == &drain_bucket());
  wheel_.reserve(std::min(2 * wheel_.size(), kMaxBuckets));
  rung_.reserve(std::min(2 * rung_.size(), kRungMaxBuckets));
  if (has_head) head_ = &drain_bucket();
  groups_.reserve(2 * groups_.size());
  free_gids_.reserve(groups_.capacity());
  for (std::vector<std::uint32_t>& bins : sort_bins_) {
    bins.reserve(kMaxSortBins);
  }
  scratch_.reserve(drain_.capacity());
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
  positions_.push_back(0);
  FTGCS_ASSERT(slots_.size() <= kGroupBase);  // slots stay below the groups
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
  // Pool indices (block · 32 + offset) fill 32 bits.
  FTGCS_ASSERT(links_.size() <= (std::size_t{1} << 27));
  release(static_cast<std::uint32_t>(links_.size() - 1));
  stats_.lane_peak_lanes = lanes_live_ + 1;  // + the lane taking the block
  stats_.lane_peak_live = size() + 1;
}

inline std::uint32_t EventQueue::lane_append(Lane& lane, Entry entry) {
  const std::uint32_t off = lane.count % kPerBlock;
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
  block(lane.last)[off] = entry;
  return lane.last * kPerBlock + off;
}

inline void EventQueue::lane_insert(Lane& bucket, std::uint64_t tag,
                                    Entry entry) {
  std::uint32_t idx;
  if (&bucket == head_) {
    // Ordered insert: the head stays sorted, so pops never re-sort it.
    const auto at = std::upper_bound(drain_.begin(), drain_.end(), entry, Later{});
    idx = static_cast<std::uint32_t>(drain_.insert(at, entry) - drain_.begin());
  } else {
    idx = lane_append(bucket, entry);
  }
  set_position(entry, tag | idx);
  count_live(tag, 1);
}

template <typename F>
void EventQueue::visit(const Lane& lane, F&& f) {
  std::uint32_t left = lane.count;
  for (std::uint32_t b = lane.first; b != kNil; b = links_[b].next) {
    const std::uint32_t n = std::min(left, kPerBlock);
    f(static_cast<const Entry*>(block(b)), std::size_t{n});
    left -= n;
  }
}

std::pair<Time, Time> EventQueue::time_span(const Lane& lane) {
  Time tmin = kTimeInfinity;
  Time tmax = -kTimeInfinity;
  visit(lane, [&](const Entry* d, std::size_t m) {
    for (std::size_t i = 0; i < m; ++i) {
      tmin = std::min(tmin, d[i].at);
      tmax = std::max(tmax, d[i].at);
    }
  });
  return {tmin, tmax};
}

template <typename F>
void EventQueue::drain_chain(Lane& lane, F&& f) {
  // A block is released only once read: f may take it straight back.
  const Lane src = lane;
  lane = Lane{};
  std::uint32_t left = src.count;
  for (std::uint32_t b = src.first; b != kNil;) {
    const std::uint32_t n = std::min(left, kPerBlock);
    for (std::uint32_t i = 0; i < n; ++i) f(Entry(block(b)[i]));
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

/// Yields d[m − 1] down to d[0] (one type for every second-level pass).
template <typename T>
struct Reversed {
  const T* d;
  std::size_t m;
  template <typename F>
  void operator()(F f) const {
    for (std::size_t i = m; i-- > 0;) f(d[i]);
  }
};

}  // namespace

void EventQueue::insert_ladder(Entry entry) {
  // An empty window accepts nothing: pushes accumulate in the overflow
  // lane and the next pop reseeds a fresh window around them. This keeps
  // the one invariant everything rests on — every overflow entry is
  // (time, seq)-after every window entry.
  if (entry.at >= win_end_ || wheel_live_ + rung_live_ == 0) {
    // Unsorted: a push is one append, a removal one swap-remove, a
    // far-future re-aim an in-place overwrite.
    lane_insert(overflow_, 0, entry);
    ++stats_.overflow_pushes;
    stats_.overflow_peak = std::max<std::size_t>(stats_.overflow_peak,
                                                 overflow_.count);
    return;
  }
  // Clamping low to the drain bucket (including times below the window
  // origin, which are legal at queue level) preserves exact pop order:
  // the entry is inserted into the sorted head in order, and everything
  // earlier has already fired.
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

void EventQueue::remove_resident(std::uint32_t slot) {
  const std::uint64_t pos = positions_[slot];
  const std::uint64_t tag = pos & ~std::uint64_t{0xffffffff};
  std::uint32_t idx = static_cast<std::uint32_t>(pos);
  Lane& lane = bucket_at(tag);
  if (&lane == head_) {
    if (idx >= drain_.size() || drain_[idx].ref() != slot) {
      // The recorded index is a chain index from before the bucket became
      // the head, or was shifted by a later head insert or erase; locate
      // the entry by its unique slot.
      idx = static_cast<std::uint32_t>(
          std::find_if(drain_.begin(), drain_.end(),
                       [slot](const Entry& e) { return e.ref() == slot; }) -
          drain_.begin());
      FTGCS_ASSERT(idx < drain_.size());
    }
    drain_.erase(drain_.begin() + idx);  // keeps the drain order
  } else {
    const std::uint32_t back =
        lane.last * kPerBlock + (lane.count - 1) % kPerBlock;
    if (idx != back) {
      const Entry& moved = entry_at(idx) = entry_at(back);
      set_position(moved, tag | idx);
    }
    if (--lane.count % kPerBlock == 0) {  // the tail block emptied
      const std::uint32_t tail = lane.last;
      release(tail);
      if (lane.count == 0) {
        lane = Lane{};
        --lanes_live_;
      } else {
        lane.last = links_[tail].prev;
        links_[lane.last].next = kNil;
      }
    }
  }
  count_live(tag, -1);
}

template <typename Each>
bool EventQueue::distribute(Each each, Entry* dst, std::size_t n,
                            bool refine) {
  Time tmin = kTimeInfinity;
  Time tmax = -kTimeInfinity;
  each([&](const Entry& e) {
    tmin = std::min(tmin, e.at);
    tmax = std::max(tmax, e.at);
  });
  // Bin k of nb covers [tmin + k·span/nb, tmin + (k+1)·span/nb): the
  // index is monotone in `at`, so every inversion left is inside one bin.
  const std::size_t nb = std::min(n, kMaxSortBins);
  const double span = tmax - tmin;
  const double scale = static_cast<double>(nb) / span;
  // A zero span (one timestamp), an infinite one (an event at
  // kTimeInfinity) or a subnormal one (infinite scale) has no usable bins;
  // `!(span > 0)` also rejects NaN.
  if (!(span > 0.0) || !std::isfinite(span) || !std::isfinite(scale)) {
    return false;
  }
  const auto bin = [&](const Entry& e) {
    return std::min(static_cast<std::size_t>((e.at - tmin) * scale), nb - 1);
  };
  std::vector<std::uint32_t>& bins = sort_bins_[refine ? 0 : 1];
  bins.assign(nb, 0);
  each([&](const Entry& e) { ++bins[bin(e)]; });
  std::uint32_t below = 0;  // entries in earlier bins
  for (std::uint32_t& count : bins) below += std::exchange(count, below);
  // Ascending bins from the back, each filled back to front, so `dst` is
  // descending by bin and the yield order reverses within a bin.
  each([&](const Entry& e) { dst[n - 1 - bins[bin(e)]++] = e; });
  if (!refine) return true;
  // A tight band next to a far outlier falls into the few bins of the span
  // the outlier stretched: each crowded bin gets a pass of its own, fed in
  // its original order (the reverse of how it now sits in `dst`).
  below = 0;
  for (const std::uint32_t end : bins) {
    const std::size_t m = end - below;
    if (m > kCrowdedBin) {
      Entry* crowd = dst + (n - end);
      scratch_.assign(crowd, crowd + m);
      distribute(Reversed<Entry>{scratch_.data(), m}, crowd, m, false);
    }
    below = end;
  }
  return true;
}

void EventQueue::materialize(Lane& bucket) {
  std::vector<Entry>& head = drain_;
  const std::size_t n = bucket.count;
  // Grow exactly as n push_backs would: lane_peak_bytes reports this
  // capacity.
  if (head.capacity() < n) {
    std::size_t capacity = std::max<std::size_t>(head.capacity(), 1);
    while (capacity < n) capacity *= 2;
    head.reserve(capacity);
  }
  head.resize(n);
  head_ = &bucket;
  const auto each = [&](auto f) {
    visit(bucket, [&](const Entry* d, std::size_t m) {
      for (std::size_t i = 0; i < m; ++i) f(d[i]);
    });
  };
  if (!distribute(each, head.data(), n, /*refine=*/true)) {
    // One bin: chain order is mostly ascending seq, so the reversed copy
    // leaves equal-time entries in descending order already.
    std::size_t pos = n;
    each([&](const Entry& e) { head[--pos] = e; });
  }
  drain_chain(bucket, [](const Entry&) {});  // recycles the blocks
  // The exact pass. Positions are NOT rewritten (a random write per event
  // into the multi-MB positions_); removal verifies the slot instead.
  stats_.sorted_elements += n;
  stats_.sort_fallbacks += support::sort_nearly_sorted(head, Later{});
}

void EventQueue::spawn_rung(Lane& bucket) {
  const std::size_t n = bucket.count;
  rung_nb_ = std::clamp(n / kRungFanout, kMinBuckets, kRungMaxBuckets);
  if (rung_.size() < rung_nb_) rung_.resize(rung_nb_);
  auto [tmin, tmax] = time_span(bucket);
  if (!std::isfinite(tmin)) tmin = 0.0;  // see reseed(): avoid NaN offsets
  rung_start_ = tmin;
  rung_width_ = std::max((tmax - tmin) / static_cast<double>(rung_nb_),
                         std::max(std::abs(tmin), 1.0) * 1e-15);
  // Chain order is kept within each sub-bucket, so the drain's distribution
  // pass still reverses it into descending seq.
  drain_chain(bucket, [&](const Entry& e) {
    const std::size_t sub = clamp_bucket_index(
        (e.at - rung_start_) / rung_width_, 0, rung_nb_ - 1);
    lane_insert(rung_[sub], bucket_tag(/*rung=*/true, sub), e);
  });
  wheel_live_ -= n;  // lane_insert counted them into rung_live_
  rung_cur_ = 0;
  rung_active_ = true;
  ++stats_.rung_spawns;
}

void EventQueue::reseed() {
  FTGCS_ASSERT(wheel_live_ == 0 && rung_live_ == 0 && overflow_.count != 0);
  head_ = nullptr;
  rung_active_ = false;
  const std::size_t n = overflow_.count;
  auto [tmin, tmax] = time_span(overflow_);
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
  // landed: the transfer peaks at about the live set, not twice it. The
  // lane is taken out first, so size() reads n throughout the scatter.
  Lane lane = std::exchange(overflow_, Lane{});
  wheel_live_ = n;
  drain_chain(lane, [&](const Entry& e) {
    const std::size_t index = clamp_bucket_index(
        (e.at - win_start_) / bucket_width_, 0, wheel_nb_ - 1);
    set_position(e, bucket_tag(/*rung=*/false, index) |
                        lane_append(wheel_[index], e));
  });
  ++stats_.reseeds;
  stats_.bucket_count = std::max(stats_.bucket_count, wheel_nb_);
}

bool EventQueue::prepare_head() {
  for (;;) {
    if (!drain_.empty()) return true;
    head_ = nullptr;
    if (rung_active_) {
      while (rung_cur_ < rung_nb_ && rung_[rung_cur_].count == 0) {
        ++rung_cur_;
      }
      if (rung_cur_ < rung_nb_) {
        materialize(rung_[rung_cur_]);
        continue;
      }
      rung_active_ = false;
      ++wheel_cur_;
    }
    while (wheel_cur_ < wheel_nb_ && wheel_[wheel_cur_].count == 0) {
      ++wheel_cur_;
    }
    if (wheel_cur_ < wheel_nb_) {
      Lane& bucket = wheel_[wheel_cur_];
      if (bucket.count > kRungSpawnThreshold) {
        spawn_rung(bucket);
      } else {
        materialize(bucket);
      }
      continue;
    }
    if (overflow_.count == 0) return false;
    reseed();
  }
}

Time EventQueue::next_time() const {
  // Ordering the next bucket is logically const: the live event set and
  // the pop order are unchanged.
  EventQueue& self = const_cast<EventQueue&>(*this);
  if (!self.prepare_head()) return kTimeInfinity;
  return drain_.back().at;
}

EventId EventQueue::schedule_typed(Time t, EventKind kind, SinkId sink,
                                   const EventPayload& payload) {
  FTGCS_EXPECTS(sink < (1u << 24));  // packed next to the kind tag
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.set(kind, sink);
  s.payload = payload;
  ++stats_.wide_events;
  insert_ladder(Entry{t, take_seqs(1) << kRefBits | slot});
  return EventId{(static_cast<std::uint64_t>(slot) + 1) << 32 | s.gen};
}

void EventQueue::schedule_fire_only(Time t, EventKind kind, SinkId sink,
                                    const EventPayload& payload) {
  static constexpr Duration kNoDelay = 0.0;
  schedule_fire_only_group(t, &kNoDelay, 1, kind, sink, payload, payload.c,
                           nullptr);
}

void EventQueue::schedule_fire_only_group(Time base, const Duration* delays,
                                          std::size_t count, EventKind kind,
                                          SinkId sink,
                                          const EventPayload& proto,
                                          std::int32_t first_dest,
                                          const std::int32_t* rest_dests,
                                          const std::uint8_t* skip) {
  FTGCS_EXPECTS(sink < (1u << 24));
  std::size_t live = count;
  for (std::size_t i = 0; i < count; ++i) {
    FTGCS_EXPECTS(delays[i] >= 0.0);
    if (skip != nullptr && skip[i] != 0) --live;
  }
  if (proto.x != 0.0) {
    // x ≠ 0 has no home in the group record: each delivery takes a slot,
    // in exactly the same seq order, a skipped delivery's seq included.
    EventPayload pl = proto;
    for (std::size_t i = 0; i < count; ++i) {
      if (skip != nullptr && skip[i] != 0) {
        take_seqs(1);
        continue;
      }
      pl.c = i == 0 ? first_dest : rest_dests[i - 1];
      schedule_typed(base + delays[i], kind, sink, pl);
    }
    return;
  }
  // One bump of `count`: delivery i gets base_seq + i, exactly the seqs
  // `count` sequential schedule_fire_only calls would have consumed.
  const std::uint64_t base_seq = take_seqs(count);
  if (live == 0) return;  // every delivery lives elsewhere
  std::uint32_t gid;
  if (!free_gids_.empty()) {
    gid = free_gids_.back();
    free_gids_.pop_back();
  } else {
    gid = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
    FTGCS_ASSERT(groups_.size() <= kGroupBase);  // gid + kGroupBase fits a ref
  }
  GroupRec& g = groups_[gid];
  g.base_seq = base_seq;
  g.rest = rest_dests;
  g.first_dest = first_dest;
  g.a = proto.a;
  g.b = proto.b;
  g.d = proto.d;
  g.sink_kind = sink << 8 | static_cast<std::uint32_t>(kind);
  g.live = static_cast<std::uint32_t>(live);
  ++stats_.group_inserts;
  stats_.narrow_events += live;
  for (std::size_t i = 0; i < count; ++i) {
    if (skip != nullptr && skip[i] != 0) continue;
    insert_ladder(Entry{base + delays[i],
                        (base_seq + i) << kRefBits | (kGroupBase + gid)});
  }
}

bool EventQueue::cancel(EventId id) {
  std::uint32_t slot;
  if (!decode_live(id, slot)) return false;
  remove_resident(slot);
  bump_generation(slot);
  free_.push_back(slot);
  return true;
}

bool EventQueue::reschedule(EventId id, Time t) {
  std::uint32_t slot;
  if (!decode_live(id, slot)) return false;
  // Fresh sequence number: ties at the new time fire after everything
  // already scheduled there, exactly as a cancel + schedule would.
  const Entry moved{t, take_seqs(1) << kRefBits | slot};
  const std::uint64_t pos = positions_[slot];
  const std::uint64_t tag = pos & ~std::uint64_t{0xffffffff};
  const std::uint32_t idx = static_cast<std::uint32_t>(pos);
  if (tag == 0 && (t >= win_end_ || wheel_live_ + rung_live_ == 0)) {
    // Overflow entry staying in the overflow lane: the lane is unsorted,
    // so a far-future timer re-aim is one in-place overwrite.
    entry_at(idx) = moved;
    return true;
  }
  if (tag != 0 && (tag & kRungBit) == 0 && t < win_end_) {
    // Timer re-aims move fire times by O(rho) — almost always within the
    // same bucket. Overwriting in place (the drain orders it) skips the
    // swap-remove + reinsert round trip. Buckets past the drain head are
    // chains, whose positions are exact.
    const std::size_t bucket_index = static_cast<std::size_t>(tag >> 32) - 1;
    const double off = (t - win_start_) / bucket_width_;
    if (bucket_index > wheel_cur_ &&
        off >= static_cast<double>(bucket_index) &&
        off < static_cast<double>(bucket_index + 1)) {
      FTGCS_ASSERT(entry_at(idx).ref() == slot);
      entry_at(idx) = moved;
      return true;
    }
  }
  remove_resident(slot);
  insert_ladder(moved);
  return true;
}

EventQueue::Fired EventQueue::pop() {
  Fired fired;
  const bool popped = pop_if_at_most(kTimeInfinity, fired);
  FTGCS_EXPECTS(popped);
  return fired;
}

}  // namespace ftgcs::sim
