#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace ftgcs::sim {
namespace {

/// Records the fire time and tag (payload.a) of every event it receives.
struct Recorder final : EventSink {
  std::vector<Time> times;
  std::vector<std::int32_t> tags;
  void on_event(EventKind, const EventPayload& payload, Time now) override {
    times.push_back(now);
    tags.push_back(payload.a);
  }
};

EventPayload tagged(std::int32_t tag) {
  EventPayload payload;
  payload.a = tag;
  return payload;
}

TEST(Simulator, TimeAdvancesToEventTimes) {
  Simulator sim;
  Recorder rec;
  const SinkId id = sim.register_sink(&rec);
  sim.post_at(1.5, EventKind::kTimer, id, {});
  sim.post_at(0.5, EventKind::kTimer, id, {});
  sim.run_until(10.0);
  EXPECT_EQ(rec.times, (std::vector<Time>{0.5, 1.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  Recorder rec;
  const SinkId id = sim.register_sink(&rec);
  sim.post_at(1.0, EventKind::kTimer, id, {});
  sim.post_at(2.0, EventKind::kTimer, id, {});
  sim.post_at(3.0, EventKind::kTimer, id, {});
  sim.run_until(2.0);
  EXPECT_EQ(rec.times.size(), 2u);  // event at exactly t_end fires
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(5.0);
  EXPECT_EQ(rec.times.size(), 3u);
}

TEST(Simulator, RunUntilFiresOnlyTheDueEvents) {
  Simulator sim;
  Recorder rec;
  const SinkId id = sim.register_sink(&rec);
  sim.post_at(1.0, EventKind::kTimer, id, tagged(1));
  sim.post_at(2.0, EventKind::kTimer, id, tagged(2));
  sim.run_until(1.5);
  EXPECT_EQ(rec.tags, (std::vector<std::int32_t>{1}));
  EXPECT_FALSE(sim.idle());
  sim.run_until(2.5);
  EXPECT_EQ(rec.tags, (std::vector<std::int32_t>{1, 2}));
  EXPECT_TRUE(sim.idle());
}

/// Re-posts itself one time unit later until it has fired `limit` times.
struct Chain final : EventSink {
  Simulator& sim;
  SinkId self;
  int count = 0;
  int limit = 5;
  explicit Chain(Simulator& s) : sim(s), self(s.register_sink(this)) {}
  void on_event(EventKind, const EventPayload&, Time) override {
    ++count;
    if (count < limit) sim.post_after(1.0, EventKind::kTimer, self, {});
  }
};

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim;
  Chain chain(sim);
  sim.post_after(1.0, EventKind::kTimer, chain.self, {});
  sim.run_until(100.0);
  EXPECT_EQ(chain.count, 5);
}

/// Tag 0 posts tag 1 with zero delay; records when each fires.
struct ZeroDelay final : EventSink {
  Simulator& sim;
  SinkId self;
  std::vector<Time> times;
  explicit ZeroDelay(Simulator& s) : sim(s), self(s.register_sink(this)) {}
  void on_event(EventKind, const EventPayload& payload, Time now) override {
    times.push_back(now);
    if (payload.a == 0) {
      sim.post_after(0.0, EventKind::kTimer, self, tagged(1));
    }
  }
};

TEST(Simulator, AfterZeroDelayFiresAtCurrentTime) {
  Simulator sim;
  ZeroDelay sink(sim);
  sim.post_at(4.0, EventKind::kTimer, sink.self, tagged(0));
  sim.run_until(5.0);
  EXPECT_EQ(sink.times, (std::vector<Time>{4.0, 4.0}));
}

TEST(Simulator, CancelStopsPendingEvent) {
  Simulator sim;
  Recorder rec;
  const SinkId sink = sim.register_sink(&rec);
  const EventId id = sim.post_at(1.0, EventKind::kTimer, sink, {});
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until(2.0);
  EXPECT_TRUE(rec.times.empty());
}

TEST(Simulator, DispatchesToTheAddressedSink) {
  Simulator sim;
  Recorder first;
  Recorder second;
  const SinkId a = sim.register_sink(&first);
  const SinkId b = sim.register_sink(&second);
  sim.post_at(1.0, EventKind::kTimer, b, tagged(7));
  sim.post_fire_only_after(2.0, EventKind::kPulse, a, tagged(8));
  sim.post_after(3.0, EventKind::kProbe, b, tagged(9));
  sim.run_until(10.0);
  EXPECT_EQ(first.tags, (std::vector<std::int32_t>{8}));
  EXPECT_EQ(second.tags, (std::vector<std::int32_t>{7, 9}));
  EXPECT_EQ(second.times, (std::vector<Time>{1.0, 3.0}));
}

TEST(Simulator, CountersTrackActivity) {
  Simulator sim;
  Recorder rec;
  const SinkId sink = sim.register_sink(&rec);
  sim.post_at(1.0, EventKind::kTimer, sink, {});
  sim.post_at(2.0, EventKind::kTimer, sink, {});
  const EventId id = sim.post_at(3.0, EventKind::kTimer, sink, {});
  sim.cancel(id);
  sim.run_until(10.0);
  EXPECT_EQ(sim.scheduled_events(), 3u);
  EXPECT_EQ(sim.fired_events(), 2u);
  EXPECT_TRUE(sim.idle());
}

// ---- dead deliveries (DeadRing) ---------------------------------------------

/// Batch-channel sink: records every queued delivery, batched or single.
struct BatchRecorder final : EventSink {
  std::vector<Time> times;
  std::vector<std::int32_t> dests;
  void on_event(EventKind, const EventPayload& payload, Time now) override {
    times.push_back(now);
    dests.push_back(payload.c);
  }
  void on_event_batch(EventKind, const BatchedEvent* events,
                      std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      times.push_back(events[i].at);
      dests.push_back(events[i].payload.c);
    }
  }
};

bool accept_all(const EventPayload&, const void*) { return true; }

/// DeadFired that adds up the dead deliveries fired.
void count_dead(std::size_t n, void* ctx) {
  *static_cast<std::size_t*>(ctx) += n;
}

Time down(Time t) {
  return std::nextafter(t, -std::numeric_limits<Time>::infinity());
}
Time up(Time t) {
  return std::nextafter(t, std::numeric_limits<Time>::infinity());
}

/// A simulator whose batch channel feeds `rec`, with the DeadRing on over
/// delays in [0.5, up(1.0)].
struct DeadFixture {
  Simulator sim;
  BatchRecorder rec;
  SinkId sink;
  std::size_t dead_fired = 0;

  DeadFixture() : sink(sim.register_sink(&rec)) {
    sim.set_batch_channel(sink, EventKind::kPulse, &accept_all, nullptr);
    EXPECT_TRUE(sim.enable_dead_ring(0.5, up(1.0), &count_dead, &dead_fired));
  }

  /// One four-delivery group at now(): dests 10..13, the given delays,
  /// deliveries 0 and 3 dead.
  void post(const Duration (&delays)[4]) {
    static const std::int32_t rest[] = {11, 12, 13};
    const std::uint8_t dead[] = {1, 0, 0, 1};
    EventPayload proto;
    proto.d = 1;
    sim.post_fire_only_group(delays, 4, EventKind::kPulse, sink, proto, 10,
                             rest, dead);
  }
};

TEST(DeadRing, DeadDeliveriesFireWithTheRunUntilBoundary) {
  DeadFixture f;
  // Dead deliveries at exactly 1.0 and just past it; live ones between.
  f.post({1.0, 0.6, 0.7, up(1.0)});
  EXPECT_EQ(f.sim.pending_events(), 4u);
  f.sim.run_until(1.0);  // ≤ t_end: the one at exactly 1.0 fires
  EXPECT_EQ(f.rec.dests, (std::vector<std::int32_t>{11, 12}));
  EXPECT_EQ(f.dead_fired, 1u);
  EXPECT_EQ(f.sim.fired_events(), 3u);
  EXPECT_EQ(f.sim.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(f.sim.now(), 1.0);
  f.sim.run_until(up(1.0));
  EXPECT_EQ(f.dead_fired, 2u);
  EXPECT_EQ(f.sim.fired_events(), 4u);
  EXPECT_TRUE(f.sim.idle());
}

TEST(DeadRing, StrictlyExclusiveWindowsLeaveTheBoundaryArrival) {
  // The sharded backend's interior windows run to down(B): an arrival at
  // exactly B belongs to the next window.
  DeadFixture f;
  f.post({0.8, 0.6, 0.7, 0.9});
  f.sim.run_until(down(0.8));
  EXPECT_EQ(f.sim.fired_events(), 2u);
  EXPECT_EQ(f.dead_fired, 0u);
  f.sim.run_until(0.8);
  EXPECT_EQ(f.dead_fired, 1u);
  f.sim.run_until(down(0.9));
  EXPECT_EQ(f.dead_fired, 1u);
  f.sim.run_until(0.9);
  EXPECT_EQ(f.dead_fired, 2u);
  EXPECT_EQ(f.sim.fired_events(), 4u);
  EXPECT_TRUE(f.sim.idle());
}

TEST(DeadRing, WholeBinsFireOnceTheClockHasPassedThem) {
  // Between run_until boundaries, dead deliveries are counted a bin at a
  // time, never ahead of their arrival.
  DeadFixture f;
  f.post({0.55, 0.6, 0.7, 0.56});
  EventPayload timer;
  f.sim.post_at(0.9, EventKind::kTimer, f.sink, timer);
  std::size_t before_timer = 0;
  struct Probe final : EventSink {
    const std::size_t* counted;
    std::size_t* seen;
    void on_event(EventKind, const EventPayload&, Time) override {
      *seen = *counted;
    }
  } probe;
  probe.counted = &f.dead_fired;
  probe.seen = &before_timer;
  f.sim.post_at(0.9, EventKind::kTimer, f.sim.register_sink(&probe), timer);
  f.sim.post_at(0.3, EventKind::kTimer, f.sim.register_sink(&probe), timer);
  f.sim.run_until(0.3);
  EXPECT_EQ(before_timer, 0u);  // nothing had arrived
  f.sim.run_until(2.0);
  EXPECT_EQ(before_timer, 2u);  // both arrived before 0.9
  EXPECT_EQ(f.sim.fired_events(), 7u);
}

TEST(DeadRing, SurvivorsKeepTheirSequenceNumbers) {
  // Two groups with identical delays tie at every arrival; survivors of a
  // masked group must interleave with the other group exactly as without
  // the mask (seqs consumed in delivery order, dead ones included).
  DeadFixture f;
  const Duration delays[] = {0.6, 0.6, 0.6, 0.6};
  f.post(delays);
  static const std::int32_t rest[] = {21, 22, 23};
  EventPayload proto;
  proto.d = 1;
  f.sim.post_fire_only_group(delays, 4, EventKind::kPulse, f.sink, proto, 20,
                             rest);
  f.sim.run_until(1.0);
  EXPECT_EQ(f.rec.dests,
            (std::vector<std::int32_t>{11, 12, 20, 21, 22, 23}));
  EXPECT_EQ(f.dead_fired, 2u);
}

TEST(DeadRing, SkippedDeliveriesTakeOnlyTheirSeqs) {
  // A delivery routed to another shard never fires here and is not
  // counted as dead, yet keeps its seq like a dead one — on the narrow
  // group path and on the x ≠ 0 per-delivery fallback alike.
  for (const double x : {0.0, 1.5}) {
    SCOPED_TRACE(x);
    DeadFixture f;
    const Duration delays[] = {0.6, 0.6, 0.6, 0.6};
    static const std::int32_t rest[] = {11, 12, 13};
    const std::uint8_t mask[] = {Simulator::kSkippedDelivery, 0,
                                 Simulator::kDeadDelivery, 0};
    EventPayload proto;
    proto.d = 1;
    proto.x = x;
    f.sim.post_fire_only_group(delays, 4, EventKind::kPulse, f.sink, proto,
                               10, rest, mask);
    static const std::int32_t rest2[] = {21, 22, 23};
    proto.x = 0.0;
    f.sim.post_fire_only_group(delays, 4, EventKind::kPulse, f.sink, proto,
                               20, rest2);
    f.sim.run_until(1.0);
    EXPECT_EQ(f.rec.dests,
              (std::vector<std::int32_t>{11, 13, 20, 21, 22, 23}));
    EXPECT_EQ(f.dead_fired, 1u);
    EXPECT_EQ(f.sim.fired_events(), 7u);
    EXPECT_TRUE(f.sim.idle());
  }
}

}  // namespace
}  // namespace ftgcs::sim
