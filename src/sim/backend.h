// Vestigial queue-backend tag.
//
// The event engine has one scheduling front-end, the ladder (calendar)
// queue in sim/event_queue.h; nothing reads this enum any more. It and the
// `engine` members that carry it (core::FtGcsSystem::Config,
// par::ShardedFtGcsSystem::Config, gcs::GcsSystem::Config,
// exp::ResolvedRun) stay only because benchmark/ftgcs_e2e.cpp, which is
// kept unchanged between benchmark revisions, still assigns them; they go
// with the next change to the benchmark.
#pragma once

#include <cstdint>

namespace ftgcs::sim {

enum class QueueBackend : std::uint8_t {
  kLadder,
};

}  // namespace ftgcs::sim
