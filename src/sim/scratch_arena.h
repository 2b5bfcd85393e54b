// Reusable scratch columns for batch-channel receivers.
//
// The batch channel hands receivers runs of up to Simulator::kMaxBatch
// events; a vectorized receiver wants to decode them into flat columns
// (lane index, member index, fire time, computed value) before the array
// sweeps. Those columns are pure scratch — dead between
// runs — so the Simulator owns ONE arena and every receiver bound to its
// batch channel borrows it: no per-run allocation, no per-receiver copies
// going cold between runs. There is at most one batch channel per
// simulator and runs are processed one at a time, so borrowing needs no
// further coordination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftgcs::sim {

struct BatchScratch {
  std::vector<std::int32_t> lane;    ///< resolved receive-lane index
  std::vector<std::int32_t> member;  ///< sender's index within its cluster
  std::vector<double> at;            ///< per-event fire time
  std::vector<double> value;         ///< computed arrival values

  /// Grows every column to hold `n` entries (never shrinks — the arena is
  /// sized once to the longest run and stays warm).
  void ensure(std::size_t n) {
    if (lane.size() < n) {
      lane.resize(n);
      member.resize(n);
      at.resize(n);
      value.resize(n);
    }
  }
};

}  // namespace ftgcs::sim
