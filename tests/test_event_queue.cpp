#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace ftgcs::sim {
namespace {

// The queue contract: (time, seq) order, FIFO ties, cancel and reschedule
// semantics. tests/test_queue_differential.cpp checks the same order
// against a reference queue under random op streams.
class EventQueueTest : public ::testing::Test {
 protected:
  EventQueue q;
};

TEST_F(EventQueueTest, FiresInTimeOrder) {
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventQueueTest, EqualTimesFireFifo) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(EventQueueTest, CancelPreventsFiring) {
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST_F(EventQueueTest, CancelIsIdempotent) {
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST_F(EventQueueTest, CancelledHeadDoesNotBlockNextTime) {
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST_F(EventQueueTest, NextTimeOnEmptyIsInfinity) {
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST_F(EventQueueTest, SizeTracksLiveEvents) {
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueTest, PopReturnsTimeAndId) {
  const EventId id = q.schedule(7.5, [] {});
  const auto fired = q.pop();
  EXPECT_DOUBLE_EQ(fired.at, 7.5);
  EXPECT_EQ(fired.id, id);
}

TEST_F(EventQueueTest, CancelAfterFireIsNoOp) {
  int fired = 0;
  const EventId id = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [] {});
  q.pop().fn();
  EXPECT_EQ(fired, 1);
  // The id is spent; cancelling it must not touch the remaining event.
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST_F(EventQueueTest, SlotReuseInvalidatesOldIds) {
  // ABA guard: after an event fires, its pool slot is recycled; a handle
  // from the old generation must neither cancel nor alias the new event.
  const EventId old_id = q.schedule(1.0, [] {});
  q.pop();
  EXPECT_TRUE(q.empty());

  bool second_fired = false;
  const EventId new_id = q.schedule(2.0, [&] { second_fired = true; });
  // The pool recycled the slot (same index), so the ids share the slot
  // half but differ in generation.
  EXPECT_EQ(old_id.value >> 32, new_id.value >> 32);
  EXPECT_NE(old_id.value, new_id.value);
  EXPECT_FALSE(q.cancel(old_id));  // stale generation: rejected
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(second_fired);
}

TEST_F(EventQueueTest, TypedEventsCarryPayloadAndFifoOrder) {
  for (int i = 0; i < 5; ++i) {
    EventPayload payload;
    payload.a = i;
    payload.x = 0.5 * i;
    q.schedule_typed(3.0, EventKind::kPulse, 7, payload);
  }
  for (int i = 0; i < 5; ++i) {
    const auto fired = q.pop();
    EXPECT_EQ(fired.kind, EventKind::kPulse);
    EXPECT_EQ(fired.sink, 7u);
    EXPECT_EQ(fired.payload.a, i);  // equal times: scheduling order
    EXPECT_DOUBLE_EQ(fired.payload.x, 0.5 * i);
    EXPECT_FALSE(fired.fn);
  }
  EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueTest, RescheduleMatchesCancelPlusScheduleOrder) {
  // A rescheduled event must tie-break as if it had been cancelled and
  // re-scheduled: after everything already sitting at the target time.
  EventPayload payload;
  payload.a = 1;
  const EventId moved = q.schedule_typed(9.0, EventKind::kTimer, 0, payload);
  payload.a = 2;
  q.schedule_typed(5.0, EventKind::kTimer, 0, payload);
  EXPECT_TRUE(q.reschedule(moved, 5.0));
  EXPECT_EQ(q.pop().payload.a, 2);  // was at 5.0 first
  EXPECT_EQ(q.pop().payload.a, 1);  // the moved event fires after
}

TEST_F(EventQueueTest, RescheduleOfDeadIdFails) {
  const EventId id = q.schedule_typed(1.0, EventKind::kTimer, 0, {});
  q.pop();
  EXPECT_FALSE(q.reschedule(id, 2.0));
  EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueTest, TypedPathDoesNotAllocateAfterWarmup) {
  // Steady-state schedule/fire cycles must reuse pooled slots: the pool
  // high-water mark stays at the warm-up size.
  for (int i = 0; i < 64; ++i) {
    q.schedule_typed(static_cast<Time>(i), EventKind::kPulse, 0, {});
  }
  const std::size_t warm = q.pool_size();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 32; ++i) q.pop();
    for (int i = 0; i < 32; ++i) {
      q.schedule_typed(1000.0 + round, EventKind::kPulse, 0, {});
    }
  }
  EXPECT_EQ(q.pool_size(), warm);
}

TEST_F(EventQueueTest, InterleavedScheduleCancelStress) {
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(i % 100), [&] { ++fired; }));
  }
  // Cancel every third event.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (q.cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired + cancelled, 1000);
  EXPECT_EQ(cancelled, 334);
}

TEST_F(EventQueueTest, FireOnlyEventsInterleaveInFifoOrder) {
  // Fire-only events share the sequence space with cancellable ones: at
  // equal times they fire in exact scheduling order, and their Fired.id
  // is the null id (there is nothing to cancel).
  EventPayload payload;
  payload.a = 1;
  q.schedule_typed(5.0, EventKind::kTimer, 0, payload);
  payload.a = 2;
  q.schedule_fire_only(5.0, EventKind::kPulse, 3, payload);
  payload.a = 3;
  q.schedule_typed(5.0, EventKind::kTimer, 0, payload);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().payload.a, 1);
  const auto fired = q.pop();
  EXPECT_EQ(fired.payload.a, 2);
  EXPECT_EQ(fired.kind, EventKind::kPulse);
  EXPECT_EQ(fired.sink, 3u);
  EXPECT_FALSE(fired.id);  // inline entries carry no handle
  EXPECT_EQ(q.pop().payload.a, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueLadder, FireOnlyPathTouchesNoSlotPool) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    q.schedule_fire_only(static_cast<Time>(i), EventKind::kPulse, 0, {});
  }
  EXPECT_EQ(q.pool_size(), 0u);  // no slot was ever acquired
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(q.pop().at, static_cast<Time>(i));
  }
  EXPECT_TRUE(q.empty());
}

// ---- calendar tiers ---------------------------------------------------------

TEST(EventQueueLadder, FarFutureEventsCrossTheOverflowTier) {
  // A population far beyond the first calendar window must survive the
  // horizon rollover: the window drains, reseeds around the far cohort,
  // and pops continue in exact order.
  EventQueue q;
  std::vector<double> expected;
  for (int i = 0; i < 200; ++i) {
    const double near = 1.0 + 0.01 * i;
    EventPayload payload;
    payload.x = near;
    q.schedule_typed(near, EventKind::kTimer, 0, payload);
    expected.push_back(near);
  }
  // First pop builds the window around the near cohort…
  const auto first = q.pop();
  EXPECT_DOUBLE_EQ(first.at, 1.0);
  // …so the far cohort lands beyond its horizon, in the overflow tier,
  // and draining the window must reseed a second one around it.
  for (int i = 0; i < 200; ++i) {
    const double far = 1e6 + 0.01 * (200 - i);
    EventPayload payload;
    payload.x = far;
    q.schedule_typed(far, EventKind::kTimer, 0, payload);
    expected.push_back(far);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(expected.begin());  // the one already popped
  for (double t : expected) {
    ASSERT_FALSE(q.empty());
    const auto fired = q.pop();
    EXPECT_DOUBLE_EQ(fired.at, t);
    EXPECT_DOUBLE_EQ(fired.payload.x, t);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GE(q.tier_stats().reseeds, 2u);
  EXPECT_GT(q.tier_stats().overflow_peak, 0u);
}

TEST(EventQueueLadder, SkewedBucketSpawnsARung) {
  // Thousands of events landing in one bucket (identical-ish times next to
  // one far outlier that stretches the window) must trigger the rung split
  // and still fire in FIFO order.
  EventQueue q;
  for (int i = 0; i < 6000; ++i) {
    EventPayload payload;
    payload.a = i;
    q.schedule_typed(5.0 + 1e-7 * (i % 10), EventKind::kTimer, 0, payload);
  }
  q.schedule_typed(1e9, EventKind::kTimer, 0, {});
  int last_tag[10] = {-1, -1, -1, -1, -1, -1, -1, -1, -1, -1};
  for (int i = 0; i < 6000; ++i) {
    const auto fired = q.pop();
    const int lane = fired.payload.a % 10;
    EXPECT_GT(fired.payload.a, last_tag[lane]);  // FIFO within equal times
    last_tag[lane] = fired.payload.a;
  }
  EXPECT_DOUBLE_EQ(q.pop().at, 1e9);
  EXPECT_GT(q.tier_stats().rung_spawns, 0u);
}

TEST_F(EventQueueTest, InfiniteTimesPopLastInFifoOrder) {
  // kTimeInfinity is a legal scheduling time; it must sort after every
  // finite event and FIFO among itself (the window math clamps infinite
  // offsets into the last bucket).
  EventPayload payload;
  payload.a = 1;
  q.schedule_typed(kTimeInfinity, EventKind::kTimer, 0, payload);
  payload.a = 2;
  q.schedule_typed(3.0, EventKind::kTimer, 0, payload);
  payload.a = 3;
  q.schedule_typed(kTimeInfinity, EventKind::kTimer, 0, payload);
  payload.a = 4;
  q.schedule_typed(1.0, EventKind::kTimer, 0, payload);
  EXPECT_EQ(q.pop().payload.a, 4);
  // Schedule more finite work after a pop (the ladder has a window now).
  payload.a = 5;
  q.schedule_typed(7.0, EventKind::kTimer, 0, payload);
  EXPECT_EQ(q.pop().payload.a, 2);
  EXPECT_EQ(q.pop().payload.a, 5);
  const auto first_inf = q.pop();
  EXPECT_EQ(first_inf.payload.a, 1);
  EXPECT_EQ(first_inf.at, kTimeInfinity);
  EXPECT_EQ(q.pop().payload.a, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueLadder, IdenticalTimestampsDegenerateWindow) {
  // Zero time span: the width floor keeps indices finite and order FIFO.
  EventQueue q;
  for (int i = 0; i < 300; ++i) {
    EventPayload payload;
    payload.a = i;
    q.schedule_typed(42.0, EventKind::kTimer, 0, payload);
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(q.pop().payload.a, i);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace ftgcs::sim
