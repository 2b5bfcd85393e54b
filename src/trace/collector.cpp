#include "trace/collector.h"

#include <algorithm>
#include <utility>

namespace ftgcs::trace {

namespace {

/// Element moves the insertion sort may spend per record before it gives
/// up and falls back to std::sort.
constexpr std::size_t kInsertionMovesPerRecord = 4;

/// Sorts `records` under record_key_less in place: insertion sort, linear
/// in n plus the inversions of a fire-order buffer, until the move budget
/// runs out, then std::sort so the worst case stays O(n log n).
void sort_nearly_sorted(std::vector<Record>& records) {
  std::size_t budget = kInsertionMovesPerRecord * records.size();
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (!record_key_less(records[i], records[i - 1])) continue;
    const Record record = records[i];
    std::size_t j = i;
    for (; j > 0 && record_key_less(record, records[j - 1]); --j) {
      records[j] = records[j - 1];
    }
    records[j] = record;
    if (i - j > budget) {
      std::sort(records.begin(), records.end(), record_key_less);
      return;
    }
    budget -= i - j;
  }
}

}  // namespace

/// Lock-free per-shard capture buffer: only its owning worker thread
/// appends, and the collector drains it only while the workers are parked.
class TraceCollector::ShardBuffer final : public TraceSink {
 public:
  void on_delivery(sim::Time at, const sim::EventPayload& payload) override {
    Record record;
    record.at = at;
    record.sender = payload.a;
    record.dest = payload.c;
    record.kind = static_cast<std::uint8_t>(payload.d);
    record.level = kind_has_level(record.kind) ? payload.b : 0;
    record.value = kind_has_value(record.kind) ? payload.x : 0.0;
    records_.push_back(record);
  }

  // Growth stays geometric: an exact reserve(size + n) per batch would
  // copy the whole buffer on every batch.
  void on_delivery_batch(const sim::BatchedEvent* events,
                         std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      on_delivery(events[i].at, events[i].payload);
    }
  }

  std::vector<Record>& records() { return records_; }

  // Merge cursor over the sorted records.
  bool drained() const { return head_ == records_.size(); }
  const Record& head() const { return records_[head_]; }
  const Record& pop() { return records_[head_++]; }

  /// Drops the merged records, keeping the capacity for the next window.
  void clear() {
    records_.clear();
    head_ = 0;
  }

 private:
  std::vector<Record> records_;
  std::size_t head_ = 0;  ///< next record the merge emits
};

TraceCollector::TraceCollector(const std::string& path) : writer_(path) {}

TraceCollector::~TraceCollector() = default;

TraceSink* TraceCollector::shard_sink(int shard) {
  while (static_cast<int>(shards_.size()) <= shard) {
    shards_.push_back(std::make_unique<ShardBuffer>());
  }
  return shards_[static_cast<std::size_t>(shard)].get();
}

void TraceCollector::commit() {
  if (finished_) return;
  // Key ties are whole-record ties (trace/format.h), so any correct sort and
  // merge writes the same bytes, whatever the shard interleaving and capture
  // order. Each buffer is sorted in place; a k-way merge over the shard
  // heads (a linear scan: shard counts are small) streams into the writer.
  for (auto& shard : shards_) sort_nearly_sorted(shard->records());
  for (;;) {
    ShardBuffer* next = nullptr;
    for (auto& shard : shards_) {
      if (shard->drained()) continue;
      if (next == nullptr || record_key_less(shard->head(), next->head())) {
        next = shard.get();
      }
    }
    if (next == nullptr) break;
    writer_.append(next->pop());
  }
  for (auto& shard : shards_) shard->clear();
}

void TraceCollector::finish() {
  if (finished_) return;
  commit();
  finished_ = true;
  writer_.finish();
}

}  // namespace ftgcs::trace
