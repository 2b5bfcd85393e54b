// Randomized differential test: the ladder EventQueue must pop the exact
// same (time, seq, payload) sequence as the map-based (time, seq)
// reference queue (tests/reference_queue.h) under any interleaving of
// schedule / cancel / reschedule / pop.
//
// One RNG decides an op stream that is executed against both queues in
// lockstep. The time distribution is deliberately nasty for a calendar
// queue: dense near-future clusters (many events per bucket → rung
// spawns), far-future spikes (overflow tier + horizon rollovers when the
// window reseeds past them), exact ties (FIFO order), and occasional times
// below the last popped time (the drain-bucket clamp path). Pop bursts
// drag the window across many bucket-width boundaries and reseeds. The
// batch channel's drain (pop_run interleaved with pop_if_at_most) is held
// to the same sequence.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "reference_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ftgcs::sim {
namespace {

/// The batch channel under test: sink 0 pulses whose tag is even.
const std::uint32_t kBatchKey = static_cast<std::uint32_t>(EventKind::kPulse);

bool admit_even(const EventPayload& payload, const void*) {
  return (payload.a & 1) == 0;
}

/// True iff the channel takes the reference event into a run. A pulse
/// with x ≠ 0 rides the slotted path, which the channel never takes.
bool batchable(const ReferenceQueue::Fired& fired) {
  return fired.kind == EventKind::kPulse && fired.payload.x == 0.0 &&
         admit_even(fired.payload, nullptr);
}

void expect_same_payload(const EventPayload& a, const EventPayload& b) {
  EXPECT_EQ(a.a, b.a);
  EXPECT_EQ(a.b, b.b);
  EXPECT_EQ(a.c, b.c);  // narrow group decode
  EXPECT_EQ(a.d, b.d);
  EXPECT_EQ(a.x, b.x);
}

struct Pair {
  ReferenceQueue::Id reference_id = 0;
  EventId ladder_id;
};

class Differ {
 public:
  Pair schedule(Time t, std::int32_t tag) {
    EventPayload payload;
    payload.a = tag;
    payload.x = t;
    Pair pair;
    pair.reference_id =
        reference_.schedule_typed(t, EventKind::kTimer, 0, payload);
    pair.ladder_id = ladder_.schedule_typed(t, EventKind::kTimer, 0, payload);
    live_.push_back(pair);
    check_sizes();
    return pair;
  }

  /// Fire-only events (a group of one in the ladder, or slotted when
  /// x ≠ 0) interleave with cancellable ones in the same (time, seq)
  /// order space. `slotted` carries x = t (slotted unless t = 0).
  void schedule_fire_only(Time t, std::int32_t tag, bool slotted = true,
                          std::uint32_t kind_tag = 0) {
    EventPayload payload;
    payload.a = tag;
    payload.d = kind_tag;
    payload.x = slotted ? t : 0.0;
    reference_.schedule_fire_only(t, EventKind::kPulse, 0, payload);
    ladder_.schedule_fire_only(t, EventKind::kPulse, 0, payload);
    check_sizes();
  }

  /// Coalesced fan-out group: one group record in the ladder (slotted
  /// entries when x ≠ 0), expanded per delivery in the reference — both
  /// must consume the same seq range and pop the same (time, payload)
  /// sequence. The dest arrays live in a deque so the pointers the ladder
  /// borrows stay stable for the queue's whole lifetime.
  void schedule_group(Time base, const std::vector<Duration>& delays,
                      std::int32_t tag, double x = 0.0) {
    EventPayload proto;
    proto.a = tag;
    proto.b = tag ^ 0x5a5a;
    proto.d = static_cast<std::uint32_t>(delays.size());
    proto.x = x;
    dests_.emplace_back();
    std::vector<std::int32_t>& rest = dests_.back();
    for (std::size_t i = 1; i < delays.size(); ++i) {
      rest.push_back(tag + static_cast<std::int32_t>(i));
    }
    reference_.schedule_fire_only_group(base, delays.data(), delays.size(),
                                        EventKind::kPulse, 0, proto, tag,
                                        rest.data());
    ladder_.schedule_fire_only_group(base, delays.data(), delays.size(),
                                     EventKind::kPulse, 0, proto, tag,
                                     rest.data());
    check_sizes();
  }

  void cancel(std::size_t index) { cancel_pair(take(index)); }

  void reschedule(std::size_t index, Time t) {
    reschedule_pair(live_[index], t);
  }

  /// Targeted forms: `pair` may already be spent (both sides must agree).
  void cancel_pair(const Pair& pair) {
    const bool a = reference_.cancel(pair.reference_id);
    const bool b = ladder_.cancel(pair.ladder_id);
    ASSERT_EQ(a, b);
    check_sizes();
  }

  void reschedule_pair(const Pair& pair, Time t) {
    const bool a = reference_.reschedule(pair.reference_id, t);
    const bool b = ladder_.reschedule(pair.ladder_id, t);
    ASSERT_EQ(a, b);
    check_sizes();
  }

  /// Pops one event from both queues and asserts identical observations.
  /// Returns the popped time so the driver can track "now".
  Time pop() {
    EXPECT_FALSE(reference_.empty());
    EXPECT_FALSE(ladder_.empty());
    const auto a = reference_.pop();
    check_popped(a, ladder_.pop());
    return a.at;
  }

  /// pop_if_at_most on the ladder: the reference's next event, or none
  /// when the reference has nothing due by `t_end`.
  bool pop_if_at_most(Time t_end, Time& now) {
    EventQueue::Fired b;
    if (!ladder_.pop_if_at_most(t_end, b)) {
      EXPECT_TRUE(reference_.empty() || reference_.next_time() > t_end);
      return false;
    }
    if (reference_.empty()) {
      ADD_FAILURE() << "ladder popped past the reference";
      return false;
    }
    check_popped(reference_.pop(), b);
    now = b.at;
    return true;
  }

  /// One batch-channel run through pop_run: exactly the reference's next
  /// n events, each one the channel takes, and maximal — short of `cap`,
  /// the next event due by `t_end` is one the channel rejects.
  std::size_t pop_run(Time t_end, std::size_t cap, Time& now) {
    const std::size_t n = ladder_.pop_run(t_end, kBatchKey, admit_even,
                                          nullptr, run_.data(), cap);
    EXPECT_LE(n, cap);
    for (std::size_t i = 0; i < n; ++i) {
      if (reference_.empty()) {
        ADD_FAILURE() << "run outlived the reference";
        return n;
      }
      const ReferenceQueue::Fired a = reference_.pop();
      EXPECT_TRUE(batchable(a)) << "run item " << i;
      EXPECT_LE(run_[i].at, t_end);
      EXPECT_EQ(a.at, run_[i].at) << "run item " << i;
      expect_same_payload(a.payload, run_[i].payload);
      now = run_[i].at;
    }
    if (n < cap && !reference_.empty() && reference_.next_time() <= t_end) {
      EXPECT_FALSE(batchable(reference_.front())) << "run stopped early";
    }
    check_sizes();
    return n;
  }

  void check_next_time() {
    EXPECT_EQ(reference_.next_time(), ladder_.next_time());
  }

  std::size_t live_count() const { return live_.size(); }
  bool empty() const { return reference_.empty(); }
  const EventQueue& ladder() const { return ladder_; }

 private:
  Pair take(std::size_t index) {
    const Pair pair = live_[index];
    live_[index] = live_.back();
    live_.pop_back();
    return pair;
  }

  void check_popped(const ReferenceQueue::Fired& a,
                    const EventQueue::Fired& b) {
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.kind, b.kind);
    expect_same_payload(a.payload, b.payload);
    // A cancellable event's ids become stale in both queues; drop the
    // pair, and check the ladder fired the handle it issued for it.
    if (a.id != 0) {
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i].reference_id == a.id) {
          EXPECT_EQ(live_[i].ladder_id, b.id);
          live_[i] = live_.back();
          live_.pop_back();
          break;
        }
      }
    }
    check_sizes();
  }

  void check_sizes() {
    ASSERT_EQ(reference_.size(), ladder_.size());
    ASSERT_EQ(reference_.empty(), ladder_.empty());
  }

  ReferenceQueue reference_;
  EventQueue ladder_;
  std::vector<Pair> live_;
  /// Group dest arrays; deque keeps the borrowed pointers stable.
  std::deque<std::vector<std::int32_t>> dests_;
  std::vector<BatchedEvent> run_ =
      std::vector<BatchedEvent>(Simulator::kMaxBatch);
};

/// Draws a scheduling time around `now` from a mixture built to cross
/// every tier boundary of the ladder backend.
Time draw_time(Rng& rng, Time now) {
  const double pick = rng.next_double();
  if (pick < 0.35) return now + rng.next_double();            // near future
  if (pick < 0.55) return now + 0.5;                          // exact ties
  if (pick < 0.70) return now + rng.next_double() * 1e-6;     // dense cluster
  if (pick < 0.80) return now + 100.0 + rng.next_double();    // mid horizon
  if (pick < 0.90) return now + 1e5 * (1.0 + rng.next_double());  // far spike
  // Slightly below the frontier: by the time this fires, pops may have
  // advanced past it — the drain-bucket clamp path.
  return now * (1.0 - 1e-9 * rng.next_double());
}

/// The batch-channel op stream: channel pulses of either tag parity (a
/// slice on the slotted path), fan-out groups of either parity, timers,
/// cancels and re-aims — so admitted and rejected traffic share buckets.
void random_batch_ops(Rng& rng, Differ& d, Time now, int count) {
  for (int op = 0; op < count; ++op) {
    const double pick = rng.next_double();
    const Time t = draw_time(rng, now);
    const auto tag = static_cast<std::int32_t>(rng.below(1 << 20));
    if (pick < 0.40) {
      d.schedule_fire_only(t, tag, /*slotted=*/rng.next_double() < 0.1);
    } else if (pick < 0.55) {
      std::vector<Duration> delays(1 + rng.below(8));
      for (Duration& delay : delays) {
        delay = std::max(t - now, 0.0) + 1e-3 * rng.next_double();
      }
      d.schedule_group(now, delays, tag);
    } else if (pick < 0.80 || d.live_count() == 0) {
      d.schedule(t, tag);
    } else if (pick < 0.90) {
      d.cancel(rng.below(d.live_count()));
    } else {
      d.reschedule(rng.below(d.live_count()), draw_time(rng, now));
    }
  }
}

TEST(QueueDifferential, RandomOpStreamPopsIdentically) {
  Rng rng(2024);
  Differ d;
  Time now = 0.0;
  std::uint64_t popped = 0;
  for (int op = 0; op < 25000; ++op) {
    const double pick = rng.next_double();
    if (pick < 0.28 || d.live_count() == 0) {
      d.schedule(draw_time(rng, now), op);
    } else if (pick < 0.40) {
      d.schedule_fire_only(draw_time(rng, now), op);
    } else if (pick < 0.50) {
      // Coalesced fan-out whose delays straddle the tier boundaries:
      // near-future (wheel), dense (rung-bound buckets) and far spikes
      // (narrow overflow lane + reseed distribution).
      std::vector<Duration> delays(1 + rng.below(8));
      for (Duration& delay : delays) {
        const double shape = rng.next_double();
        if (shape < 0.5) {
          delay = rng.next_double();
        } else if (shape < 0.8) {
          delay = 1e-6 * rng.next_double();
        } else {
          delay = 1e5 * rng.next_double();
        }
      }
      d.schedule_group(now, delays, op * 100);
    } else if (pick < 0.60) {
      d.cancel(rng.below(d.live_count()));
    } else if (pick < 0.72) {
      d.reschedule(rng.below(d.live_count()),
                   draw_time(rng, now));
    } else if (pick < 0.75) {
      // Pop burst: drain a chunk so the window sweeps whole bucket ranges
      // and occasionally empties entirely (reseed from the overflow tier).
      const int burst = 1 + static_cast<int>(rng.below(200));
      for (int i = 0; i < burst && !d.empty(); ++i) now = d.pop(), ++popped;
    } else if (pick < 0.78) {
      // Schedule burst into one microsecond-wide cluster while far spikes
      // stretch the window: piles >64 events into one bucket, which must
      // split into a rung on drain.
      const Time cluster = now + 50.0 + rng.next_double();
      for (int i = 0; i < 100; ++i) {
        if (i % 3 == 0) {
          d.schedule(cluster + 1e-6 * rng.next_double(), op * 1000 + i);
        } else if (i % 3 == 1) {
          d.schedule_fire_only(cluster + 1e-6 * rng.next_double(),
                               op * 1000 + i);
        } else {
          // Narrow entries must ride the same bucket splits: pile group
          // members into the cluster so rung spawns see both lanes.
          const std::vector<Duration> delays = {
              (cluster - now) + 1e-6 * rng.next_double(),
              (cluster - now) + 1e-6 * rng.next_double(),
              (cluster - now) + 1e-6 * rng.next_double()};
          d.schedule_group(now, delays, op * 1000 + i);
        }
      }
    } else if (pick < 0.98) {
      if (!d.empty()) now = d.pop(), ++popped;
    } else {
      d.check_next_time();
    }
  }
  while (!d.empty()) now = d.pop(), ++popped;
  EXPECT_EQ(d.live_count(), 0u);
  EXPECT_GT(popped, 20000u);
  // The stream must actually have exercised every ladder tier — and both
  // entry widths (narrow group deliveries AND wide slotted/fire-only).
  const auto& stats = d.ladder().tier_stats();
  EXPECT_GT(stats.reseeds, 1u);
  EXPECT_GT(stats.rung_spawns, 0u);
  EXPECT_GT(stats.overflow_peak, 0u);
  EXPECT_GT(stats.group_inserts, 0u);
  EXPECT_GT(stats.narrow_events, 0u);
  EXPECT_GT(stats.wide_events, 0u);
}

// Block-lane edge cases, in lockstep with the reference. Ladder lanes are
// chains of 512 B blocks (32 entries), so every count around a block
// edge, every removal position (overflow lane, interior block, tail
// block, the sorted head vector), a rung
// spawn from a many-block bucket and a reseed from a many-block overflow
// lane must all pop exactly in (time, seq) order.
TEST(QueueDifferential, BlockLaneEdgeCasesPopIdentically) {
  Differ d;
  // A spread population so the first pop builds a window of ~unit-wide
  // buckets over [0, ~2000); bucket 0 holds only the t = 0 timer.
  d.schedule(0.0, -1);
  for (int i = 0; i < 1000; ++i) d.schedule_fire_only(1.0 + i, -2 - i);
  EXPECT_EQ(d.pop(), 0.0);  // reseed: the window now exists

  // Bursts of block size −1 / +0 / +1 into single buckets, wide (timers,
  // fire-only) and narrow (one group per burst).
  std::vector<std::vector<Pair>> bursts;
  const int sizes[] = {15, 16, 17, 31, 32, 33};
  for (int k = 0; k < 6; ++k) {
    const Time base = 100.0 + 10.0 * k + 0.25;
    bursts.emplace_back();
    std::vector<Duration> delays;
    for (int i = 0; i < sizes[k]; ++i) {
      const Time t = base + 1e-3 * ((i * 7) % sizes[k]);
      bursts.back().push_back(d.schedule(t, k * 100 + i));
      d.schedule_fire_only(t, k * 100 + 50 + i);
      delays.push_back(t);  // now = 0
    }
    d.schedule_group(0.0, delays, 10000 + k * 100);
  }
  // Removals at each chain position of the 33-entry burst (blocks of 16,
  // 16, 1): first block, interior block, the lone tail entry (frees the
  // tail block), then re-aims inside the bucket (in-place fast path), to
  // another bucket, and to the overflow lane.
  std::vector<Pair>& b33 = bursts[5];
  d.cancel_pair(b33[3]);
  d.cancel_pair(b33[20]);
  d.cancel_pair(b33[32]);
  d.reschedule_pair(b33[10], 150.2509);
  d.reschedule_pair(b33[17], 130.7);
  d.reschedule_pair(b33[18], 1e6);
  d.cancel_pair(bursts[1][15]);  // the last entry of an exactly-full block
  d.reschedule_pair(bursts[2][16], 120.26);

  // Overflow lane spanning several blocks: 40 far timers, then cancel
  // from its middle and tail, re-aim one in place (stays in overflow) and
  // one back into the window.
  std::vector<Pair> far;
  for (int i = 0; i < 40; ++i) far.push_back(d.schedule(5e5 + i, 20000 + i));
  d.cancel_pair(far[5]);
  d.cancel_pair(far[39]);
  d.reschedule_pair(far[20], 6e5);
  d.reschedule_pair(far[21], 140.5);

  // The head vector: pop into the 15-entry burst's bucket so it becomes
  // the sorted head, cancel one of its (stale-indexed) entries, insert
  // fresh entries into the head in order, cancel and re-aim some of those
  // around a next_time() read, then cancel an original entry.
  Time now = 0.0;
  while (now < 100.0) now = d.pop();
  d.cancel_pair(bursts[0][9]);
  std::vector<Pair> fresh;
  for (int i = 0; i < 5; ++i) {
    fresh.push_back(d.schedule(now + 1e-5 * (i + 1), 30000 + i));
  }
  d.cancel_pair(fresh[1]);
  d.reschedule_pair(fresh[3], now + 2e-5);
  d.check_next_time();
  d.cancel_pair(fresh[4]);
  d.cancel_pair(bursts[0][12]);

  // A pile far past the rung threshold in one bucket: thousands of
  // entries spanning hundreds of blocks per lane, split into a rung.
  const Time pile = 170.5;
  std::vector<Duration> pile_delays;
  for (int i = 0; i < 3000; ++i) {
    const Time t = pile + 1e-4 * ((i * 37) % 3000) / 3000.0;
    if (i % 2 == 0) d.schedule(t, 40000 + i);
    pile_delays.push_back(t - now);
  }
  d.schedule_group(now, pile_delays, 50000);
  while (!d.empty()) now = d.pop();
  EXPECT_GT(d.ladder().tier_stats().rung_spawns, 0u);
  EXPECT_GE(d.ladder().tier_stats().reseeds, 2u);  // the far overflow lane
}

TEST(QueueDifferential, MonotoneSimulationShapedStream) {
  // The simulator-shaped workload: times only in [now, now + horizon],
  // reschedules dominate (timer re-aim), pops advance now monotonically.
  Rng rng(7);
  Differ d;
  Time now = 0.0;
  for (int round = 0; round < 2000; ++round) {
    for (int i = 0; i < 8; ++i) {
      d.schedule(now + 0.9 + 0.2 * rng.next_double(), round * 8 + i);
    }
    for (int i = 0; i < 4 && d.live_count() > 0; ++i) {
      d.reschedule(rng.below(d.live_count()),
                   now + 0.9 + 0.2 * rng.next_double());
    }
    for (int i = 0; i < 8 && !d.empty(); ++i) now = d.pop();
  }
  while (!d.empty()) now = d.pop();
  EXPECT_EQ(d.live_count(), 0u);
}

// The batch channel's drain in lockstep with the reference: pop_run runs
// (out buffers of 1..kMaxBatch, finite t_end cuts) interleaved with
// pop_if_at_most must pop exactly the reference's (time, payload)
// sequence, every run item must be one the channel takes, and every run
// must be maximal.
TEST(QueueDifferential, BatchRunsMatchReference) {
  for (const std::uint64_t seed : {1234u, 99u}) {
    Rng rng(seed);
    Differ d;
    Time now = 0.0;
    std::uint64_t run_events = 0;
    for (int round = 0; round < 60; ++round) {
      random_batch_ops(rng, d, now, 400);
      if (round % 10 == 4) {
        // A pile past the rung-spawn threshold in one bucket, both lanes:
        // runs must flow across rung sub-buckets.
        const Time pile = now + 25.0;
        std::vector<Duration> delays;
        for (int i = 0; i < 2500; ++i) {
          const Time t = pile + 1e-4 * rng.next_double();
          d.schedule_fire_only(t, static_cast<std::int32_t>(i),
                               /*slotted=*/false);
          delays.push_back(t - now);
        }
        d.schedule_group(now, delays, 2 * round);
      }
      // Every seventh round (and the last) drains to empty.
      const Time t_end = round % 7 == 6 || round == 59
                             ? kTimeInfinity
                             : now + 50.0 * rng.next_double();
      for (;;) {
        if (rng.next_double() < 0.75) {
          const std::size_t cap = 1 + rng.below(Simulator::kMaxBatch);
          const std::size_t n = d.pop_run(t_end, cap, now);
          run_events += n;
          if (n != 0) continue;
        }
        if (!d.pop_if_at_most(t_end, now)) break;
      }
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " round " << round;
    }
    EXPECT_TRUE(d.empty());
    const EventQueue::TierStats stats = d.ladder().tier_stats();
    EXPECT_EQ(stats.ordered_run_events, run_events);
    EXPECT_GT(run_events, 20000u);
    EXPECT_GT(stats.narrow_events, 0u);
    EXPECT_GT(stats.rung_spawns, 0u);
    EXPECT_GT(stats.reseeds, 0u);
  }
}

// Ties, in lockstep with the reference. The drain head is ordered by a
// distribution pass over time bins and then an exact (time, seq) pass, so
// this case piles entries onto a few exact instants, in every shape the
// bins cannot order on their own: wide timers re-aimed in place onto the
// instants in random order (so a bin's chain order is no longer seq
// order), zero-spread fan-out groups whose deliveries share one instant,
// lanes whose whole span is one instant (no bins at all), a same-instant
// pile past the rung-spawn threshold (2048), and inserts and cancels into
// the drain head while it is being drained.
TEST(QueueDifferential, TieHeavyBucketsPopIdentically) {
  Rng rng(31);
  Differ d;
  // A spread population, so the first pop builds a window of ~2-wide
  // buckets over [0, ~2000).
  d.schedule(0.0, -1);
  for (int i = 0; i < 1000; ++i) d.schedule_fire_only(1.0 + i, -2 - i);
  EXPECT_EQ(d.pop(), 0.0);

  // Each timer with the instants of its bucket it may be re-aimed to.
  struct Timer {
    Pair pair;
    Time at;
    std::size_t instants;
  };
  std::vector<Timer> timers;
  const auto zero_spread = [&](Time t, std::size_t count, std::int32_t tag) {
    d.schedule_group(0.0, std::vector<Duration>(count, t), tag);
  };
  // Four instants in one bucket, hit in random order by every entry kind.
  const Time ties[] = {200.5, 200.5 + 1e-3, 200.5 + 2e-3, 200.5 + 3e-3};
  for (int i = 0; i < 300; ++i) {
    const Time t = ties[rng.below(4)];
    const double pick = rng.next_double();
    if (pick < 0.35) {
      timers.push_back({d.schedule(t, 1000 + i), ties[0], 4});
    } else if (pick < 0.7) {
      d.schedule_fire_only(t, 2 * i, /*slotted=*/rng.next_double() < 0.1);
    } else {
      zero_spread(t, 1 + rng.below(8), 2 * i);
    }
  }
  // One instant per lane: timers alone in one bucket, a zero-spread group
  // alone in another.
  for (int i = 0; i < 60; ++i) {
    timers.push_back({d.schedule(300.5, 3000 + i), 300.5, 1});
  }
  zero_spread(400.5, 500, 4000);
  // A same-instant pile past the rung threshold, both lanes: the rung
  // cannot split it, so its one sub-bucket is ordered whole.
  for (int i = 0; i < 1200; ++i) {
    timers.push_back({d.schedule(500.5, 5000 + i), 500.5, 1});
  }
  for (int g = 0; g < 70; ++g) zero_spread(500.5, 20, 6000 + 2 * g);
  // Re-aim most timers onto an instant of their own bucket in random
  // order: in-place overwrites with fresh seqs, so seq order within an
  // instant no longer follows chain order.
  for (std::size_t i = timers.size(); i > 1; --i) {
    std::swap(timers[i - 1], timers[rng.below(i)]);
  }
  for (std::size_t i = 0; i < timers.size() * 3 / 4; ++i) {
    const Timer& timer = timers[i];
    const auto instant = static_cast<double>(rng.below(timer.instants));
    d.reschedule_pair(timer.pair, timer.at + 1e-3 * instant);
  }

  // Drain to the first instant, then insert into the drain head between
  // pops and cancel out of it before draining everything, pops and runs
  // interleaved.
  Time now = 0.0;
  while (now < ties[0]) now = d.pop();
  for (int i = 0; i < 40; ++i) {
    const Time t = ties[rng.below(4)];
    if (i % 3 == 0) {
      timers.push_back({d.schedule(t, 7000 + i), ties[0], 4});
    } else if (i % 3 == 1) {
      d.schedule_fire_only(t, 2 * (7000 + i), /*slotted=*/false);
    } else {
      zero_spread(t, 1 + rng.below(8), 2 * (7000 + i));
    }
    now = d.pop();
  }
  for (int i = 0; i < 40; ++i) {
    d.cancel_pair(timers[rng.below(timers.size())].pair);
  }
  for (;;) {
    if (rng.next_double() < 0.5) {
      const std::size_t cap = 1 + rng.below(Simulator::kMaxBatch);
      if (d.pop_run(kTimeInfinity, cap, now) != 0) continue;
    }
    if (!d.pop_if_at_most(kTimeInfinity, now)) break;
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_TRUE(d.empty());
  const EventQueue::TierStats stats = d.ladder().tier_stats();
  EXPECT_GT(stats.rung_spawns, 0u);
  EXPECT_GT(stats.sort_fallbacks, 0u);  // the shuffled instants
  // Each entry passes the exact pass at most once: when its bucket
  // becomes the drain head. Inserts into and cancels out of the head keep
  // it sorted instead of re-sorting it.
  EXPECT_LE(stats.sorted_elements, d.ladder().scheduled_count());
}

// What a delivery band looks like is ordered by the distribution pass
// alone, leaving the exact pass well inside its move budget: a zero-spread
// fan-out (one instant, seqs in chain order), a fan-out over distinct
// shuffled times, and lone deliveries over ascending times. Each band
// shares its bucket with two of the background deliveries, one time unit
// apart: they stretch the bins' span 1000× past the band's, so the
// shuffled band lands in two crowded bins that need their own pass.
TEST(QueueDifferential, DeliveryBandsSortWithoutFallback) {
  Differ d;
  d.schedule(0.0, -1);
  for (int i = 0; i < 1000; ++i) d.schedule_fire_only(1.0 + i, -2 - i);
  EXPECT_EQ(d.pop(), 0.0);
  d.schedule_group(0.0, std::vector<Duration>(1500, 100.5), 10);
  std::vector<Duration> spread;
  for (int i = 0; i < 1500; ++i) {
    spread.push_back(200.5 + 1e-3 * ((i * 37) % 1500) / 1500.0);
  }
  d.schedule_group(0.0, spread, 20);
  for (int i = 0; i < 1500; ++i) {
    d.schedule_fire_only(300.5 + 1e-3 * i / 1500.0, 2 * i, /*slotted=*/false);
  }
  while (!d.empty()) d.pop();
  const EventQueue::TierStats stats = d.ladder().tier_stats();
  EXPECT_EQ(stats.sort_fallbacks, 0u);
  EXPECT_GE(stats.sorted_elements, 4500u);
}

// One entry shape: groups of one (a lone fire-only event, whatever its d
// tag — d ≥ 256 used to take a slot), slotted x ≠ 0 sends (lone and fanned
// out), fan-outs and timers share one lane per bucket. The drain head
// stays sorted: timers inserted into it (some below the last popped time,
// so clamped into it), cancelled and re-aimed out of it, while the head is
// a rung sub-bucket of a pile that spawned a rung, must pop exactly in the
// reference's order.
TEST(QueueDifferential, OneEntryShapeKeepsTheHeadSorted) {
  Rng rng(77);
  Differ d;
  d.schedule(0.0, -1);
  for (int i = 0; i < 1000; ++i) {
    d.schedule_fire_only(1.0 + i, -2 - i, /*slotted=*/false, 256 + i);
  }
  EXPECT_EQ(d.pop(), 0.0);
  // A pile past the rung-spawn threshold in one bucket, every entry kind.
  const Time pile = 100.5;
  std::vector<Pair> timers;
  for (int i = 0; i < 3000; ++i) {
    const Time t = pile + 1e-3 * rng.next_double();
    if (i % 4 == 0) {
      timers.push_back(d.schedule(t, i));
    } else if (i % 4 == 1) {
      d.schedule_fire_only(t, i, /*slotted=*/false, 300 + i);
    } else if (i % 4 == 2) {
      d.schedule_fire_only(t, i, /*slotted=*/true);
    } else {
      const std::vector<Duration> delays = {t, t + 1e-5 * rng.next_double()};
      d.schedule_group(0.0, delays, i, i % 8 == 3 ? t : 0.0);
    }
  }
  Time now = 0.0;
  while (now < pile) now = d.pop();
  for (int round = 0; round < 600 && !d.empty(); ++round) {
    for (int i = 0; i < 3; ++i) {
      const Time t = now + 1e-5 * (rng.next_double() - 0.1);
      timers.push_back(d.schedule(t, 10000 + 3 * round + i));
    }
    if (rng.next_double() < 0.5) {
      d.schedule_fire_only(now + 1e-5 * rng.next_double(), 2 * round,
                           /*slotted=*/false, 1000);
    }
    d.cancel_pair(timers[rng.below(timers.size())]);
    d.reschedule_pair(timers[rng.below(timers.size())],
                      now + 1e-5 * rng.next_double());
    if (rng.next_double() < 0.3) {
      d.pop_run(kTimeInfinity, 1 + rng.below(8), now);
    }
    if (!d.pop_if_at_most(kTimeInfinity, now)) break;
    ASSERT_FALSE(HasFailure()) << "round " << round;
  }
  while (!d.empty()) now = d.pop();
  const EventQueue::TierStats stats = d.ladder().tier_stats();
  EXPECT_GT(stats.rung_spawns, 0u);
  EXPECT_GT(stats.wide_events, 1500u);    // timers and x ≠ 0 sends
  EXPECT_GT(stats.group_inserts, 2000u);  // mostly groups of one
  EXPECT_LE(stats.sorted_elements, d.ladder().scheduled_count());
}

}  // namespace
}  // namespace ftgcs::sim
