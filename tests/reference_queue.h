// Minimal (time, seq) reference queue: the differential oracle that
// sim::EventQueue is checked against (tests/test_queue_differential.cpp,
// tests/test_partitioned_drain.cpp).
//
// It is the definition of the pop order and nothing more: a std::map keyed
// by (time, seq) plus an id → key map for cancel and reschedule. Sequence
// numbers are consumed in the same order EventQueue consumes them (one
// per schedule, one per delivery of a fan-out group, a fresh one per
// reschedule), so the two queues break time ties identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "sim/event.h"
#include "sim/time_types.h"

namespace ftgcs::sim {

class ReferenceQueue {
 public:
  /// Handle of a cancellable event; 0 for fire-only events.
  using Id = std::uint64_t;

  struct Fired {
    Time at = 0.0;
    Id id = 0;
    EventKind kind = EventKind::kClosure;
    SinkId sink = kInvalidSink;
    EventPayload payload;
  };

  Id schedule_typed(Time t, EventKind kind, SinkId sink,
                    const EventPayload& payload) {
    const Id id = next_id_++;
    const Key key{t, next_seq_++};
    events_.emplace(key, Fired{t, id, kind, sink, payload});
    keys_.emplace(id, key);
    return id;
  }

  void schedule_fire_only(Time t, EventKind kind, SinkId sink,
                          const EventPayload& payload) {
    events_.emplace(Key{t, next_seq_++}, Fired{t, 0, kind, sink, payload});
  }

  /// Expanded per delivery: delivery i fires at base + delays[i], aimed
  /// at `first_dest` (i = 0) or `rest_dests[i − 1]`.
  void schedule_fire_only_group(Time base, const Duration* delays,
                                std::size_t count, EventKind kind,
                                SinkId sink, EventPayload proto,
                                std::int32_t first_dest,
                                const std::int32_t* rest_dests) {
    for (std::size_t i = 0; i < count; ++i) {
      proto.c = i == 0 ? first_dest : rest_dests[i - 1];
      schedule_fire_only(base + delays[i], kind, sink, proto);
    }
  }

  bool cancel(Id id) {
    const auto it = keys_.find(id);
    if (it == keys_.end()) return false;
    events_.erase(it->second);
    keys_.erase(it);
    return true;
  }

  /// Moves a live event to `t` under a fresh sequence number.
  bool reschedule(Id id, Time t) {
    const auto it = keys_.find(id);
    if (it == keys_.end()) return false;
    auto node = events_.extract(it->second);
    node.key() = Key{t, next_seq_++};
    node.mapped().at = t;
    it->second = node.key();
    events_.insert(std::move(node));
    return true;
  }

  /// Pops the earliest event. Requires !empty().
  Fired pop() {
    const Fired fired = events_.extract(events_.begin()).mapped();
    keys_.erase(fired.id);
    return fired;
  }

  Time next_time() const {
    return events_.empty() ? kTimeInfinity : events_.begin()->first.first;
  }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  using Key = std::pair<Time, std::uint64_t>;  ///< (time, seq)
  std::map<Key, Fired> events_;
  std::map<Id, Key> keys_;
  std::uint64_t next_seq_ = 1;
  Id next_id_ = 1;
};

}  // namespace ftgcs::sim
