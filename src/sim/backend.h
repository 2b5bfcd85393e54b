// Scheduling backend selection for the event engine.
//
// Two interchangeable front-ends drive the same slot pool and fire the same
// (time, sequence) order — bit-identical executions, different cost curves:
//   kHeap   — intrusive 4-ary heap only. O(log n) push/pop; the reference
//             implementation and the right choice for sparse far-future
//             timer populations (n small, horizon long).
//   kLadder — calendar/ladder-queue front-end over near-future time, with
//             an unsorted far-future overflow lane that is windowed by one
//             linear scan whenever the calendar drains. Amortized O(1)
//             push/pop when message delays and timer horizons are bounded
//             per scenario (they are — see net/channel.h), which is what
//             keeps 40k-node runs at small-run throughput.
#pragma once

#include <cstdint>

namespace ftgcs::sim {

enum class QueueBackend : std::uint8_t {
  kHeap,
  kLadder,
};

inline const char* queue_backend_name(QueueBackend backend) {
  return backend == QueueBackend::kHeap ? "heap" : "ladder";
}

}  // namespace ftgcs::sim
