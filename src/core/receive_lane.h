// Hot receive state of one ClusterSync engine (active or passive), laid
// out for the columnar pulse-dispatch path.
//
// Every pulse delivery needs exactly this much of an engine: am I
// listening, has this member already been heard, what does my logical
// clock read right now, and where do arrivals go. A ReceiveLane packs
// those words into one cache line; the engine owns one inline by default,
// and core::NodeTable relocates the lanes of all system nodes into one
// contiguous bank (with the arrival slots in a parallel flat array) so the
// dominant kClusterPulse traffic is handled entirely with array loads —
// no virtual dispatch, no engine-object walk.
//
// Arrival slots double as their own validity flags: an unheard member
// holds kUnsetArrival (a quiet NaN — logical arrival times are always
// finite), so a receive touches exactly one arrival word. The clock
// segment is a write-through mirror kept exact by LogicalClock (see
// clocks::ClockMirror): lane_receive evaluates l0 + rate·(now − t0),
// which is bit-for-bit the arithmetic of LogicalClock::read().
#pragma once

#include <cstdint>
#include <limits>

#include "clocks/logical_clock.h"
#include "sim/time_types.h"

namespace ftgcs::core {

/// Sentinel for "no pulse received": NaN, so `slot == slot` is the
/// is-heard test (one comparison, no second array).
inline constexpr double kUnsetArrival =
    std::numeric_limits<double>::quiet_NaN();

struct alignas(64) ReceiveLane {
  /// Clusters up to this size keep their arrival slots INSIDE the lane
  /// (the adjacent cache line), so a receive touches two adjacent lines
  /// instead of two scattered ones. k = 3f+1 ≤ 8 covers f ≤ 2 — every
  /// registered scenario; larger clusters use an external bank.
  static constexpr int kInlineArrivals = 8;

  clocks::ClockMirror clock;  ///< engine's logical clock (l0, t0, rate)
  double own_arrival = kUnsetArrival;  ///< L(t_vv) (Algorithm 1 line 10)
  double* arrivals = nullptr;   ///< k logical arrival slots (NaN = unheard)
  std::int32_t own_index = -1;  ///< member index of the own pulse; −1 passive
  std::uint8_t listening = 0;   ///< in phases 1–2 of the current round
  std::uint64_t dropped = 0;    ///< pulses outside the collection window
  std::uint64_t duplicates = 0; ///< repeat pulses from one member per round
  double inline_arrivals[kInlineArrivals];  ///< in-lane slots (k ≤ 8)
};
static_assert(sizeof(ReceiveLane) == 128);

/// The arrival value one receive would record: the lane's logical clock
/// read at the delivery instant — bit-for-bit LogicalClock::read().
inline double lane_arrival_value(const ReceiveLane& lane, sim::Time now) {
  return lane.clock.l0 + lane.clock.rate * (now - lane.clock.t0);
}

/// Commits one already-evaluated arrival. Split from lane_receive so the
/// vectorized dispatch path (NodeTable::on_pulse_run) can hoist the clock
/// evaluation into its own array sweep and still execute the exact same
/// commit.
///
/// A repeat receive from one member min-combines into its slot: the
/// arrival value is monotone non-decreasing in the event time (rate ≥ 0),
/// so the slot holds the value of the (time, seq)-first receive, and
/// own_arrival mirrors the slot.
inline void lane_commit(ReceiveLane& lane, int member_index, double at) {
  if (!lane.listening) {
    ++lane.dropped;
    return;
  }
  double& slot = lane.arrivals[member_index];
  if (slot == slot) {  // already heard this member this round
    ++lane.duplicates;
    slot = at < slot ? at : slot;  // min-combine ≡ first in (time, seq)
  } else {
    slot = at;
  }
  if (member_index == lane.own_index) {
    lane.own_arrival = slot;
  }
}

/// One pulse receive — the body of ClusterSyncEngine::on_member_pulse,
/// operating on the lane alone so the columnar dispatch path and the
/// engine-object path share one definition (and stay bit-identical).
inline void lane_receive(ReceiveLane& lane, int member_index, sim::Time now) {
  lane_commit(lane, member_index, lane_arrival_value(lane, now));
}

}  // namespace ftgcs::core
