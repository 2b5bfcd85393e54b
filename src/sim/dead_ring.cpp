#include "sim/dead_ring.h"

#include <algorithm>
#include <cmath>

namespace ftgcs::sim {

bool DeadRing::configure(Duration min_delay, Duration max_delay) {
  FTGCS_EXPECTS(size_ == 0);
  nb_ = 0;
  if (!(min_delay > 0.0 && max_delay >= min_delay) ||
      !std::isfinite(max_delay)) {
    return false;
  }
  // The widest bins that stay complete: a count's lag is invisible to a
  // run_until caller, and wide bins keep a push to the tail of one of
  // two or three live bins however sparse the traffic.
  const double width = min_delay / 2.0;
  // A push at `now` lands at most max_delay / width + 2 bins past the
  // clock's bin, and the oldest held bin is at most one behind it.
  const double span = max_delay / width + 3.0;
  if (!(span <= static_cast<double>(kMaxBins))) return false;
  std::size_t nb = 1;
  while (static_cast<double>(nb) < span) nb *= 2;
  nb_ = nb;
  inv_width_ = 1.0 / width;
  bins_.assign(nb_, Bin{});
  return true;
}

void DeadRing::link_block(Bin& bin) {
  if (free_.empty()) {
    do {  // the first growth also creates the kNil sentinel, block 0
      if (next_.size() == chunks_.size() << kChunkBits) {
        chunks_.push_back(
            std::make_unique<Block[]>(std::size_t{1} << kChunkBits));
      }
      next_.push_back(kNil);
    } while (next_.size() < 2);
    free_.push_back(static_cast<std::uint32_t>(next_.size() - 1));
  }
  const std::uint32_t b = free_.back();
  free_.pop_back();
  next_[b] = kNil;
  if (bin.count == 0) {
    bin.first = b;
  } else {
    next_[bin.last] = b;
  }
  bin.last = b;
  bin.tail = block(b).at;
}

void DeadRing::release(Bin& bin) {
  for (std::uint32_t b = bin.first; b != kNil; b = next_[b]) {
    free_.push_back(b);
  }
  bin = Bin{};
}

std::size_t DeadRing::retire_before(Time t) {
  const std::int64_t last = bin_of(t);
  std::size_t retired = 0;
  while (size_ != 0 && next_bin_ < last) {
    Bin& bin = bins_[static_cast<std::size_t>(next_bin_) & (nb_ - 1)];
    ++next_bin_;
    if (bin.count == 0) continue;
    retired += bin.count;
    size_ -= bin.count;
    release(bin);
  }
  return retired;
}

std::size_t DeadRing::retire_through(Time t) {
  std::size_t retired = retire_before(t);
  if (size_ == 0 || bin_of(t) != next_bin_) return retired;
  Bin& bin = bins_[static_cast<std::size_t>(next_bin_) & (nb_ - 1)];
  if (bin.count == 0) return retired;
  // Compact the arrivals still ahead (> t) to the chain's front; the write
  // cursor (wb, wi) never passes the read cursor (rb, ri).
  std::uint32_t wb = bin.first;
  std::uint32_t wi = 0;
  std::uint32_t rb = bin.first;
  std::uint32_t ri = 0;
  std::uint32_t kept = 0;
  for (std::uint32_t k = 0; k < bin.count; ++k) {
    const Time at = block(rb).at[ri];
    if (++ri == kPerBlock) {
      ri = 0;
      rb = next_[rb];
    }
    if (at <= t) continue;
    block(wb).at[wi] = at;
    ++kept;
    if (++wi == kPerBlock) {
      wi = 0;
      wb = next_[wb];
    }
  }
  retired += bin.count - kept;
  size_ -= bin.count - kept;
  if (kept == 0) {
    release(bin);
    return retired;
  }
  // Keep the blocks up to the one holding the last kept arrival.
  std::uint32_t last = bin.first;
  for (std::uint32_t i = kPerBlock; i < kept; i += kPerBlock) {
    last = next_[last];
  }
  Bin tail;
  tail.first = next_[last];
  release(tail);
  next_[last] = kNil;
  bin.last = last;
  bin.tail = block(last).at;
  bin.count = kept;
  return retired;
}

void DeadRing::prewarm() {
  if (!enabled()) return;
  // ×2 of the high-water: the live set drifts with the level bursts.
  const std::size_t blocks = 2 * next_.size();
  next_.reserve(blocks);
  free_.reserve(blocks);
  chunks_.reserve((blocks >> kChunkBits) + 1);
  while (chunks_.size() << kChunkBits < blocks) {
    chunks_.push_back(std::make_unique<Block[]>(std::size_t{1} << kChunkBits));
  }
}

}  // namespace ftgcs::sim
