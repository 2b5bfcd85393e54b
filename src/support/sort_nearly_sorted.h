// The repository's one adaptive sort, for inputs that arrive nearly in
// order: the trace collector's per-shard capture buffers (fire order, which
// is already key order on continuously sampled delays, so the sort is one
// linear check; the bound below covers inputs that are not) and the event
// queue's drain head (after a time-bin distribution pass, or a single
// appended or swap-removed entry).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ftgcs::support {

/// Element moves the insertion sort may spend per element before it gives
/// up and falls back to std::sort.
inline constexpr std::size_t kInsertionMovesPerElement = 4;

/// Sorts `items` under the strict weak order `less`, in place: insertion
/// sort, linear in n plus the inversions of the input, until the move
/// budget (kInsertionMovesPerElement × n) runs out, then std::sort, so the
/// worst case stays O(n log n). Returns true iff it fell back. Elements
/// that compare equal may end in either order.
template <typename T, typename Less>
bool sort_nearly_sorted(std::vector<T>& items, Less less) {
  std::size_t budget = kInsertionMovesPerElement * items.size();
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (!less(items[i], items[i - 1])) continue;
    const T item = items[i];
    std::size_t j = i;
    for (; j > 0 && less(item, items[j - 1]); --j) items[j] = items[j - 1];
    items[j] = item;
    if (i - j > budget) {
      std::sort(items.begin(), items.end(), less);
      return true;
    }
    budget -= i - j;
  }
  return false;
}

}  // namespace ftgcs::support
