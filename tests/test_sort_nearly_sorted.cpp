// support::sort_nearly_sorted: the budgeted insertion sort shared by the
// trace commit and the event queue's drain head. Whatever the input, the
// result is sorted; the return value says whether the move budget ran out
// and std::sort finished the job.
#include "support/sort_nearly_sorted.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

namespace ftgcs::support {
namespace {

const auto kLess = std::less<int>();

TEST(SortNearlySorted, EmptyInput) {
  std::vector<int> items;
  EXPECT_FALSE(sort_nearly_sorted(items, kLess));
  EXPECT_TRUE(items.empty());
}

TEST(SortNearlySorted, OneElement) {
  std::vector<int> items = {7};
  EXPECT_FALSE(sort_nearly_sorted(items, kLess));
  EXPECT_EQ(items, std::vector<int>{7});
}

// Equal keys never move: the payload order is kept and no budget is spent.
TEST(SortNearlySorted, AllKeysEqual) {
  struct Item {
    int key;
    int tag;
  };
  std::vector<Item> items;
  for (int i = 0; i < 100; ++i) items.push_back({5, i});
  EXPECT_FALSE(sort_nearly_sorted(
      items, [](const Item& a, const Item& b) { return a.key < b.key; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(items[i].tag, i);
}

// A reversed input has n(n−1)/2 inversions, far past 4n moves.
TEST(SortNearlySorted, ReversedInputFallsBack) {
  std::vector<int> items(200);
  std::iota(items.rbegin(), items.rend(), 0);
  EXPECT_TRUE(sort_nearly_sorted(items, kLess));
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
  EXPECT_EQ(items.front(), 0);
  EXPECT_EQ(items.back(), 199);
}

// Adjacent swaps and one element displaced across the whole range stay
// within the budget, so the insertion sort alone finishes.
TEST(SortNearlySorted, NearlySortedInputStaysInBudget) {
  std::vector<int> items(300);
  std::iota(items.begin(), items.end(), 0);
  for (std::size_t i = 0; i + 1 < items.size(); i += 10) {
    std::swap(items[i], items[i + 1]);
  }
  items.push_back(-1);  // moves past all 300
  EXPECT_FALSE(sort_nearly_sorted(items, kLess));
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
  EXPECT_EQ(items.front(), -1);
}

// The drain head's use: a descending order on a (time, seq) key, where
// an equal time is broken by the unique sequence number. Runs of equal
// times in ascending seq order each reverse, within the budget.
TEST(SortNearlySorted, DescendingCompositeKey) {
  struct Entry {
    double at;
    std::uint64_t key;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    return (b.at < a.at) | ((b.at == a.at) & (b.key < a.key));
  };
  std::vector<Entry> items;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    items.push_back({static_cast<double>(63 - seq / 4), seq});
  }
  EXPECT_FALSE(sort_nearly_sorted(items, later));
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end(), later));
  EXPECT_EQ(items.back().at, 48.0);
  EXPECT_EQ(items.back().key, 60u);  // the lowest seq at the earliest time
}

}  // namespace
}  // namespace ftgcs::support
