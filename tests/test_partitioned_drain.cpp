// Lockstep differential fuzz: the time-partitioned unordered drain
// (EventQueue::pop_run_unordered) against a plain ordered drain of the
// SAME op stream through the (time, seq) reference queue
// (tests/reference_queue.h).
//
// The partitioned drain's contract is not "same pop order" — it
// deliberately gives that up below the horizon — but "same multiset of
// admitted events, same ordered residue": any event the predicate admits
// must come out exactly once (through a tranche or an ordered pop), and
// everything else must fire through pop() in exactly the reference order.
// The fuzz drives both queues through a tier-crossing mixture (dense
// clusters, far spikes, ties, cancels, timer reschedules, truncated
// tranche buffers, finite and infinite horizons) and checks that
// equivalence at full-drain checkpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "reference_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace ftgcs::sim {
namespace {

constexpr SinkId kBatchSink = 0;
constexpr SinkId kTimerSink = 1;
const std::uint32_t kBatchKey =
    kBatchSink << 8 | static_cast<std::uint32_t>(EventKind::kPulse);

/// Time-invariant (hence trivially monotone) predicate: admits even tags.
/// Odd-tag pulses and every timer stay on the ordered path, so admitted
/// and residual traffic interleave in the same buckets.
bool admit_even(const EventPayload& payload, const void*) {
  return (payload.a & 1) == 0;
}

/// One observed emission; `b` carries a second random tag so a popped
/// event is self-describing. (`x` would be natural but is unusable here:
/// a nonzero `x` forces schedule_fire_only onto the slotted fallback,
/// whose entries are invisible to the batch channel by design.)
using Obs = std::tuple<Time, std::int32_t, std::int32_t>;

Obs observe(Time at, const EventPayload& payload) {
  return {at, payload.a, payload.b};
}

/// Either queue's Fired: an ordered pop the channel would have admitted.
template <typename Fired>
bool admitted(const Fired& fired) {
  return fired.kind == EventKind::kPulse &&
         admit_even(fired.payload, nullptr);
}

Time draw_time(Rng& rng, Time now) {
  const double pick = rng.next_double();
  if (pick < 0.35) return now + rng.next_double();             // near future
  if (pick < 0.55) return now + 0.5;                           // exact ties
  if (pick < 0.70) return now + rng.next_double() * 1e-6;      // dense cluster
  if (pick < 0.85) return now + 100.0 + rng.next_double();     // mid horizon
  return now + 1e5 * (1.0 + rng.next_double());                // far spike
}

void run_fuzz(std::uint64_t seed) {
  Rng rng(seed);
  EventQueue subject;        // drains with partitioned tranches
  ReferenceQueue reference;  // drains ordered only
  std::vector<EventId> subject_timers;
  std::vector<ReferenceQueue::Id> reference_timers;

  std::vector<Obs> subject_admitted;
  std::vector<Obs> reference_admitted;
  std::uint64_t tranche_events = 0;
  BatchedEvent buf[64];

  Time now = 0.0;
  for (int round = 0; round < 60; ++round) {
    // ---- identical op stream into both queues ----
    for (int op = 0; op < 400; ++op) {
      const double pick = rng.next_double();
      const Time t = draw_time(rng, now);
      if (pick < 0.55) {
        EventPayload payload;
        payload.a = static_cast<std::int32_t>(rng.below(1 << 20));
        payload.b = static_cast<std::int32_t>(rng.below(1 << 20));
        // A slice of the pulses carries a nonzero `x`: schedule_fire_only
        // silently diverts those to the slotted path, where they are
        // barriers for the partitioned drain (sink_kind 0) but admitted
        // pulses on the ordered path — the mixed shape a real network
        // produces for oversized payloads.
        if (rng.next_double() < 0.1) payload.x = t;
        subject.schedule_fire_only(t, EventKind::kPulse, kBatchSink, payload);
        reference.schedule_fire_only(t, EventKind::kPulse, kBatchSink,
                                     payload);
      } else if (pick < 0.80 || subject_timers.empty()) {
        EventPayload payload;
        payload.a = -1 - op;  // odd-ball tag space; never admitted (kTimer)
        payload.x = t;
        subject_timers.push_back(
            subject.schedule_typed(t, EventKind::kTimer, kTimerSink,
                                   payload));
        reference_timers.push_back(
            reference.schedule_typed(t, EventKind::kTimer, kTimerSink,
                                     payload));
      } else if (pick < 0.90) {
        const std::size_t i = rng.below(subject_timers.size());
        ASSERT_EQ(subject.cancel(subject_timers[i]),
                  reference.cancel(reference_timers[i]));
        subject_timers[i] = subject_timers.back();
        subject_timers.pop_back();
        reference_timers[i] = reference_timers.back();
        reference_timers.pop_back();
      } else {
        const std::size_t i = rng.below(subject_timers.size());
        const Time target = draw_time(rng, now);
        ASSERT_EQ(subject.reschedule(subject_timers[i], target),
                  reference.reschedule(reference_timers[i], target));
      }
    }

    // ---- mid-round partitioned tranches on the subject only ----
    // Finite horizons and a deliberately small buffer: exercises the
    // strict at < lim emission, per-bucket floor caches across repeated
    // sweeps, and the buffer-full truncation path.
    const int tranches = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < tranches; ++i) {
      const Time t_end = now + 50.0 * rng.next_double();
      const std::size_t cap = 1 + rng.below(64);
      const std::size_t n = subject.pop_run_unordered(
          t_end, kBatchKey, admit_even, nullptr, buf, cap);
      ASSERT_LE(n, cap);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LE(buf[j].at, t_end);
        ASSERT_TRUE(admit_even(buf[j].payload, nullptr));
        subject_admitted.push_back(observe(buf[j].at, buf[j].payload));
      }
      tranche_events += n;
    }

    // ---- checkpoint every few rounds: drain both to empty, compare ----
    if (round % 7 != 6 && round != 59) continue;
    std::vector<Obs> subject_rest;
    while (!subject.empty()) {
      const std::size_t n = subject.pop_run_unordered(
          kTimeInfinity, kBatchKey, admit_even, nullptr, buf, 64);
      if (n != 0) {
        for (std::size_t j = 0; j < n; ++j) {
          subject_admitted.push_back(observe(buf[j].at, buf[j].payload));
        }
        tranche_events += n;
        continue;
      }
      // Barrier (a sorted bucket): one ordered pop makes progress.
      const EventQueue::Fired fired = subject.pop();
      now = std::max(now, fired.at);
      if (admitted(fired)) {
        subject_admitted.push_back(observe(fired.at, fired.payload));
      } else {
        subject_rest.push_back(observe(fired.at, fired.payload));
      }
    }
    std::vector<Obs> reference_rest;
    while (!reference.empty()) {
      const ReferenceQueue::Fired fired = reference.pop();
      // Track the global frontier off the ordered reference (it pops
      // EVERYTHING, so its last pop is the true maximum): the next round's
      // schedule times must stay >= the subject's drain frontier.
      now = std::max(now, fired.at);
      if (admitted(fired)) {
        reference_admitted.push_back(observe(fired.at, fired.payload));
      } else {
        reference_rest.push_back(observe(fired.at, fired.payload));
      }
    }
    subject_timers.clear();
    reference_timers.clear();

    // Same admitted multiset (order-free), same ordered residue (exact).
    std::sort(subject_admitted.begin(), subject_admitted.end());
    std::sort(reference_admitted.begin(), reference_admitted.end());
    ASSERT_EQ(subject_admitted, reference_admitted);
    ASSERT_EQ(subject_rest, reference_rest);
    subject_admitted.clear();
    reference_admitted.clear();
  }

  // The run-length counters must account for exactly the tranche traffic.
  EXPECT_EQ(subject.tier_stats().unordered_events, tranche_events);
  EXPECT_GT(tranche_events, 0u);
  EXPECT_GT(subject.tier_stats().unordered_runs, 0u);
}

TEST(PartitionedDrainDifferential, LadderMatchesOrderedReference) {
  run_fuzz(1234);
  run_fuzz(99);
}

// Compaction across block boundaries: one bucket holds ~6 wide blocks and
// ~3 narrow blocks of storage-interleaved drainable and barrier entries,
// and a 7-slot out buffer fills mid-block on every call. Survivors move
// toward the chain front and emptied tail blocks are freed; the moved
// timers must stay cancellable and re-aimable (their positions follow),
// and the admitted multiset and the ordered residue must match an
// ordered-only drain of the same stream.
TEST(PartitionedDrainDifferential, CompactionAcrossBlockBoundaries) {
  EventQueue subject;
  ReferenceQueue reference;
  std::vector<EventId> subject_timers;
  std::vector<ReferenceQueue::Id> reference_timers;
  const auto both_pulse = [&](Time t, std::int32_t a) {
    EventPayload payload;
    payload.a = a;
    payload.b = a * 3;
    subject.schedule_fire_only(t, EventKind::kPulse, kBatchSink, payload);
    reference.schedule_fire_only(t, EventKind::kPulse, kBatchSink, payload);
  };
  const auto both_group = [&](Time t, std::int32_t a,
                              const std::vector<std::int32_t>& rest) {
    EventPayload proto;
    proto.a = a;
    const Duration delays[3] = {t, t + 1e-4, t + 2e-4};
    subject.schedule_fire_only_group(0.0, delays, 3, EventKind::kPulse,
                                     kBatchSink, proto, a, rest.data());
    reference.schedule_fire_only_group(0.0, delays, 3, EventKind::kPulse,
                                       kBatchSink, proto, a, rest.data());
  };
  // Window over [0, ~2003) with ~2-wide buckets; bucket 0 holds one pulse.
  both_pulse(0.0, 0);
  for (int i = 0; i < 1000; ++i) both_pulse(2.5 + i, 2 * i);
  {
    const EventQueue::Fired s = subject.pop();
    const ReferenceQueue::Fired r = reference.pop();
    ASSERT_EQ(s.at, r.at);
  }
  // The bucket under test, [1498.7, 1500.7): in storage order, drainable
  // even pulses at 1499.0x alternate with barriers at 1499.5x (timers and
  // odd pulses), so compaction moves survivors across block edges.
  const std::vector<std::int32_t> rest = {7, 9};
  for (int i = 0; i < 96; ++i) {
    const Time early = 1499.0 + 1e-3 * i;
    const Time late = 1499.5 + 1e-3 * i;
    if (i % 3 == 0) {
      EventPayload payload;
      payload.a = -1 - i;
      subject_timers.push_back(
          subject.schedule_typed(late, EventKind::kTimer, kTimerSink, payload));
      reference_timers.push_back(reference.schedule_typed(
          late, EventKind::kTimer, kTimerSink, payload));
    } else if (i % 3 == 1) {
      both_pulse(late, 2 * i + 1);  // pred-rejected: a barrier
    }
    both_pulse(early, 4000 + 2 * i);
    if (i % 4 == 0) both_group(i % 8 == 0 ? early : late, 8000 + i, rest);
  }

  std::vector<Obs> subject_admitted;
  std::vector<Obs> reference_admitted;
  BatchedEvent buf[7];
  std::size_t calls = 0;
  for (;;) {
    const std::size_t n = subject.pop_run_unordered(
        kTimeInfinity, kBatchKey, admit_even, nullptr, buf, 7);
    if (n == 0) break;
    ++calls;
    for (std::size_t j = 0; j < n; ++j) {
      subject_admitted.push_back(observe(buf[j].at, buf[j].payload));
    }
  }
  EXPECT_GT(calls, 150u);  // 1000 spread + the bucket's early pulses
  // Moved timers: cancel some, re-aim some in place and across buckets.
  for (std::size_t i = 0; i < subject_timers.size(); i += 5) {
    ASSERT_EQ(subject.cancel(subject_timers[i]),
              reference.cancel(reference_timers[i]));
  }
  for (std::size_t i = 1; i < subject_timers.size(); i += 5) {
    const Time t = i % 2 == 0 ? 1499.8 + 1e-4 * i : 1700.0 + i;
    ASSERT_EQ(subject.reschedule(subject_timers[i], t),
              reference.reschedule(reference_timers[i], t));
  }
  std::vector<Obs> subject_rest;
  while (!subject.empty()) {
    const EventQueue::Fired fired = subject.pop();
    (admitted(fired) ? subject_admitted : subject_rest)
        .push_back(observe(fired.at, fired.payload));
  }
  std::vector<Obs> reference_rest;
  while (!reference.empty()) {
    const ReferenceQueue::Fired fired = reference.pop();
    (admitted(fired) ? reference_admitted : reference_rest)
        .push_back(observe(fired.at, fired.payload));
  }
  std::sort(subject_admitted.begin(), subject_admitted.end());
  std::sort(reference_admitted.begin(), reference_admitted.end());
  EXPECT_EQ(subject_admitted, reference_admitted);
  EXPECT_EQ(subject_rest, reference_rest);
}

}  // namespace
}  // namespace ftgcs::sim
