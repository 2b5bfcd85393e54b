// The kMaxLevel heard-window quorum state of one node.
//
// A node's MaxEstimator counts, per (sending cluster, level), the distinct
// member indices it has heard a level-ℓ pulse from; f+1 distinct members
// complete a quorum (Appendix C flooding). The state is a sliding window
// of member bitmasks per cluster: the base slides with the staleness floor
// (levels below next_level − 1 are filtered on arrival and can never be
// read again), the per-level stride regrows if a member index ≥ 64·words
// appears, and far-future levels (forged, or extreme ramps) live in a
// sparse overflow list.
//
// This header owns the storage layout and the insert primitive. NodeTable
// keeps every managed node's windows in one flat array (quorum_windows_ +
// per-node offsets — the columnar layout a shard slice carries without
// per-node pointer chasing), pre-sized with one window per cluster that
// can physically reach the node; the node's MaxEstimator binds its span
// of that array (bind_quorum) and runs quorum_insert against it.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/assert.h"

namespace ftgcs::core {

/// Dense levels span at most this many levels above the window base;
/// anything past it goes to the sparse overflow list, so a Byzantine
/// kMaxLevel pulse with a huge level costs one small allocation instead
/// of an O(level) window resize.
inline constexpr int kQuorumWindowLevels = 4096;

/// Per-(node, sending cluster) quorum window. POD-ish record; the bitmask
/// storage hangs off it, sized lazily as levels are actually heard.
struct QuorumWindow {
  int cluster = -1;      ///< sending cluster this window counts
  int base = 1;          ///< level of the first stride block
  std::size_t words = 1; ///< 64-bit words per level
  std::vector<std::uint64_t> bits;  ///< bits[(level − base)·words + w]
  /// (level, member bitmask words) for levels ≥ base + kQuorumWindowLevels.
  std::vector<std::pair<int, std::vector<std::uint64_t>>> overflow;
};

namespace detail {

inline int quorum_set_and_count(std::vector<std::uint64_t>& words,
                                std::size_t offset, std::size_t n_words,
                                int member_index) {
  words[offset + static_cast<std::size_t>(member_index) / 64] |=
      std::uint64_t{1} << (member_index % 64);
  int heard = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    heard += std::popcount(words[offset + w]);
  }
  return heard;
}

}  // namespace detail

/// Sets `member_index`'s bit for `level` in `window` and returns the
/// number of distinct members heard at that level. `floor` is the caller's
/// staleness floor (max(next_level − 1, 1)): the window base slides up to
/// it first, dropping masks that can never be read again and migrating
/// overflow levels the slide pulled into dense range.
inline int quorum_insert(QuorumWindow& window, int level, int member_index,
                         int floor) {
  // Slide the base up to the staleness floor: levels below it are filtered
  // on arrival, so their masks can never be read again.
  if (window.base < floor) {
    const auto drop =
        std::min(window.bits.size(),
                 static_cast<std::size_t>(floor - window.base) * window.words);
    window.bits.erase(window.bits.begin(),
                      window.bits.begin() + static_cast<long>(drop));
    window.base = floor;
  }
  // Regrow the per-level stride if this cluster has members beyond the
  // current word capacity (k > 64·words; rare, done once per growth).
  const auto need_words =
      static_cast<std::size_t>(member_index) / 64 + 1;
  if (need_words > window.words) {
    const std::size_t levels =
        (window.bits.size() + window.words - 1) / window.words;
    std::vector<std::uint64_t> wider(levels * need_words, 0);
    for (std::size_t l = 0; l < levels; ++l) {
      for (std::size_t w = 0; w < window.words; ++w) {
        wider[l * need_words + w] = window.bits[l * window.words + w];
      }
    }
    window.bits = std::move(wider);
    window.words = need_words;
    for (auto& [lvl, mask] : window.overflow) mask.resize(need_words, 0);
  }
  FTGCS_ASSERT(level >= window.base);

  // Migrate overflow levels that the advanced base pulled into range, and
  // drop the stale ones, before deciding where `level` lives.
  for (std::size_t i = 0; i < window.overflow.size();) {
    const int lvl = window.overflow[i].first;
    if (lvl >= window.base + kQuorumWindowLevels) {
      ++i;
      continue;
    }
    if (lvl >= window.base) {
      const auto offset =
          static_cast<std::size_t>(lvl - window.base) * window.words;
      if (offset + window.words > window.bits.size()) {
        window.bits.resize(offset + window.words, 0);
      }
      for (std::size_t w = 0; w < window.words; ++w) {
        window.bits[offset + w] |= window.overflow[i].second[w];
      }
    }
    window.overflow[i] = std::move(window.overflow.back());
    window.overflow.pop_back();
  }

  if (level - window.base >= kQuorumWindowLevels) {
    // Far-future level (forged, or an extreme ramp): sparse path, O(1)
    // memory per distinct level — the old map's cost model.
    for (auto& [lvl, mask] : window.overflow) {
      if (lvl == level) {
        return detail::quorum_set_and_count(mask, 0, window.words,
                                            member_index);
      }
    }
    window.overflow.emplace_back(
        level, std::vector<std::uint64_t>(window.words, 0));
    return detail::quorum_set_and_count(window.overflow.back().second, 0,
                                        window.words, member_index);
  }

  const auto offset =
      static_cast<std::size_t>(level - window.base) * window.words;
  if (offset + window.words > window.bits.size()) {
    window.bits.resize(offset + window.words, 0);
  }
  return detail::quorum_set_and_count(window.bits, offset, window.words,
                                      member_index);
}

}  // namespace ftgcs::core
