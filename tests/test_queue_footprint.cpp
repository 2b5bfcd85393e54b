// Queue memory must follow the live events, not the simulated horizon.
//
// The ladder's lanes draw fixed 512 B blocks from one queue-owned pool, so
// retained lane storage is bounded by the live entries plus one partial
// block per non-empty lane. Per-bucket vectors instead kept every bucket
// at the largest pile it had ever held: each reseed moves the round bands
// to different buckets, so their summed capacity ratchets up with the
// number of reseeds a run goes through.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ftgcs_system.h"
#include "core/params.h"
#include "net/graph.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace ftgcs {
namespace {

/// Bytes the pooled lanes may keep at their high-water, from the live
/// events and the non-empty lanes at that moment: the blocks hold the
/// entries (16 B each) plus at most one partial 512 B block per lane;
/// the head vector's capacity is allowed one more copy of the entries.
std::size_t lane_bound(const sim::EventQueue::TierStats& stats) {
  return 2 * 16 * stats.lane_peak_live + 512 * stats.lane_peak_lanes;
}

/// A stationary round-synchronized stream straight on the ladder queue:
/// 1,000 senders pulse once per round inside a 2% band, and each pulse
/// fans out 20 coalesced deliveries. Every round draws a fresh delivery
/// offset and spread, so reseeds keep landing the bands in different
/// buckets while the live set stays the same size.
sim::EventQueue::TierStats run_round_bands(int rounds) {
  constexpr int kSenders = 1000;
  constexpr int kFanout = 20;
  sim::EventQueue queue;
  sim::Rng rng(5);
  std::vector<std::int32_t> dests(kFanout);
  std::vector<sim::Duration> delays(kFanout);
  for (int i = 0; i < kSenders; ++i) {
    sim::EventPayload payload;
    payload.a = i;
    queue.schedule_typed(0.02 * rng.next_double(), sim::EventKind::kTimer, 1,
                         payload);
  }
  while (!queue.empty()) {
    const sim::EventQueue::Fired fired = queue.pop();
    if (fired.kind != sim::EventKind::kTimer) continue;
    const auto round = static_cast<std::uint64_t>(fired.at);
    sim::Rng round_rng(round + 77);
    const double offset = 0.2 + 0.3 * round_rng.next_double();
    const double spread = 0.005 + 0.03 * round_rng.next_double();
    for (sim::Duration& d : delays) d = offset + spread * rng.next_double();
    queue.schedule_fire_only_group(fired.at, delays.data(), kFanout,
                                   sim::EventKind::kPulse, 0, fired.payload,
                                   0, dests.data() + 1);
    const double next =
        static_cast<double>(round + 1) + 0.02 * rng.next_double();
    if (next < rounds) {
      queue.schedule_typed(next, sim::EventKind::kTimer, 1, fired.payload);
    }
  }
  return queue.tier_stats();
}

// With a stationary live set the footprint must not grow with the horizon.
// Per-bucket vectors kept 3.05 MB of lane capacity at 10 rounds and
// 6.27 MB at 40 (2.05×; 9.9 MB at 160) on this stream.
TEST(QueueFootprint, StationaryRoundBandsKeepAFlatLanePeak) {
  const auto short_run = run_round_bands(10);
  const auto long_run = run_round_bands(40);
  ASSERT_GT(short_run.lane_peak_bytes, 0u);
  EXPECT_LE(static_cast<double>(long_run.lane_peak_bytes),
            1.1 * static_cast<double>(short_run.lane_peak_bytes));
  EXPECT_LE(long_run.lane_peak_bytes, lane_bound(long_run));
}

sim::EventQueue::TierStats run_torus(int rounds) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 3;
  core::FtGcsSystem system(net::Graph::torus(8, 8), std::move(config));
  system.start();
  system.run_until(rounds * params.T);
  return system.simulator().queue_stats();
}

// The real workload: an 8×8-cluster torus. Its live set is not
// stationary over these horizons, so the pooled footprint still grows
// (0.52 MB at 10 rounds, 0.57 MB at 40), but every block is accounted for
// by the live set and its non-empty lanes: the bound reads 0.58 MB and
// 0.89 MB. Per-bucket vectors kept 8.8 MB and 16.2 MB here (with 32 B
// entries), about 7× the bound of the time.
TEST(QueueFootprint, TorusLanePeakFollowsTheLiveSet) {
  for (const int rounds : {10, 40}) {
    const auto stats = run_torus(rounds);
    ASSERT_GT(stats.lane_peak_bytes, 0u);
    EXPECT_LE(stats.lane_peak_bytes, lane_bound(stats))
        << "rounds=" << rounds << " live=" << stats.lane_peak_live
        << " lanes=" << stats.lane_peak_lanes;
  }
}

}  // namespace
}  // namespace ftgcs
