#include "trace/collector.h"

#include <utility>

#include "support/sort_nearly_sorted.h"

namespace ftgcs::trace {

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
  // A capture buffer is in fire order, so it is nearly sorted already.
  for (auto& shard : shards_) {
    support::sort_nearly_sorted(shard->records(),
                                [](const Record& a, const Record& b) {
                                  return record_key_less(a, b);
                                });
  }
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
