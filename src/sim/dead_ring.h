// Elided deliveries: fire-only events proven to be pure drops when they are
// sent, kept out of the event queue.
//
// A broadcast's receiver layer may prove at send time that some deliveries
// will do nothing on arrival but be counted (core/node_table.h proves it
// for App. C level pulses, and checks every proof it relies on). Such a
// delivery still fires exactly once, once the drain clock has passed its
// arrival, so the fired and delivered counts — and every pin built on them
// — are unchanged; it just never takes a queue entry. Its only effect is a
// count, so all the ring keeps of it is the arrival time: the count must
// land in the run_until window that holds the arrival.
//
// Arrivals lie in [now + min_delay, now + max_delay], a window that slides
// with the clock, so the ring is a small calendar over that window: bins of
// width w = min_delay / 2, each a chain of 512-byte blocks of arrival
// times from one ring-owned LIFO pool (retained storage follows the live
// entries, not the busiest bin). A push appends to its bin. Because
// w = min_delay / 2, a push made at time `now` lands in a bin strictly
// after the bin holding `now`, so a bin is complete before the drain clock
// reaches it. Bins retire whole, counted but never read, once the clock has
// passed them; only the bin holding a run_until boundary is scanned.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#if defined(__SSE2__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "sim/time_types.h"
#include "support/assert.h"

namespace ftgcs::sim {

class DeadRing {
 public:
  DeadRing() = default;
  DeadRing(const DeadRing&) = delete;
  DeadRing& operator=(const DeadRing&) = delete;

  /// Lays the calendar out for deliveries whose delays lie in
  /// [min_delay, max_delay]. Returns false, leaving the ring disabled, when
  /// the window needs more than kMaxBins bins (min_delay tiny against
  /// max_delay); callers then elide nothing.
  bool configure(Duration min_delay, Duration max_delay);
  bool enabled() const { return nb_ != 0; }

  /// Holds one delivery sent at `now` that arrives at `at` (the delay
  /// within the configured window) until the drain clock passes it.
  void push(Time now, Time at) {
    // Empty, the ring has no bin to keep: restart the calendar at the clock.
    if (size_ == 0 && bin_of(now) >= next_bin_) next_bin_ = bin_of(now) + 1;
    const std::int64_t b = bin_of(at);
    // A bin retires only once the clock has passed it, and a push lands at
    // least one bin past the clock (w ≤ min_delay / 2), so the target bin
    // is still open and inside the calendar.
    FTGCS_ASSERT(b >= next_bin_ &&
                 b - next_bin_ < static_cast<std::int64_t>(nb_));
    Bin& bin = bins_[static_cast<std::size_t>(b) & (nb_ - 1)];
    const std::uint32_t off = bin.count % kPerBlock;
    if (off == 0) link_block(bin);
    store(bin.tail + off, at);
    ++bin.count;
    ++size_;
  }

  /// True if a bin lies wholly before `t` (every arrival in it is < t).
  bool passed(Time t) const { return size_ != 0 && bin_of(t) > next_bin_; }
  /// Drops the bins wholly before `t`; returns how many deliveries they
  /// held.
  std::size_t retire_before(Time t);
  /// retire_before(t), plus the deliveries ≤ t of t's own bin (the others
  /// stay held); returns how many went.
  std::size_t retire_through(Time t);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Reserves the block pool at 2× its high-water, so steady-state windows
  /// allocate nothing (tests/test_alloc_guard.cpp).
  void prewarm();

  /// Bins the calendar may use; a wider window disables the ring.
  static constexpr std::size_t kMaxBins = std::size_t{1} << 14;

 private:
  static constexpr std::uint32_t kPerBlock = 64;  ///< 64 × 8 B in 512 B
  static constexpr std::uint32_t kNil = 0;        ///< ends every chain
  union alignas(64) Block {
    Block() {}
    Time at[kPerBlock];
  };
  static_assert(sizeof(Block) == 512);
  static constexpr unsigned kChunkBits = 6;  ///< 64 blocks (32 KB) per chunk

  struct Bin {
    Time* tail = nullptr;  ///< arrivals of the chain's last block
    std::uint32_t first = kNil;
    std::uint32_t last = kNil;
    std::uint32_t count = 0;
  };

  std::int64_t bin_of(Time t) const {
    // Saturates far past any reachable bin (run_until(+∞) included).
    const double bin = t * inv_width_;
    return bin < 0x1p62 ? static_cast<std::int64_t>(bin) : INT64_MAX;
  }
  Block& block(std::uint32_t b) {
    return chunks_[b >> kChunkBits][b & ((1u << kChunkBits) - 1)];
  }
  /// Writes an arrival around the caches where the target allows: a bin
  /// is read back only when a run_until boundary falls in it, so there is
  /// nothing to gain from pulling its cold lines in to write them. The
  /// ring is read only by the thread that writes it.
  static void store(Time* slot, Time at) {
#if defined(__SSE2__) && defined(__x86_64__)
    long long bits;
    std::memcpy(&bits, &at, sizeof bits);
    _mm_stream_si64(reinterpret_cast<long long*>(slot), bits);
#else
    *slot = at;
#endif
  }
  /// Appends a free block to `bin`'s chain and points its tail there.
  void link_block(Bin& bin);
  /// Returns `bin`'s blocks to the pool and empties it.
  void release(Bin& bin);

  std::size_t nb_ = 0;  ///< bins in the calendar (a power of two); 0 = off
  double inv_width_ = 0.0;
  std::vector<Bin> bins_;
  std::int64_t next_bin_ = 0;  ///< first bin not yet retired
  std::size_t size_ = 0;

  std::vector<std::unique_ptr<Block[]>> chunks_;
  std::vector<std::uint32_t> next_;  ///< chain link per block
  std::vector<std::uint32_t> free_;  ///< LIFO free blocks
};

}  // namespace ftgcs::sim
