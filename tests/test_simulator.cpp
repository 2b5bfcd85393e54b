#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
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

}  // namespace
}  // namespace ftgcs::sim
