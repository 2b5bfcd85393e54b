#include "trace/collector.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"
#include "support/sort_nearly_sorted.h"

namespace ftgcs::trace {

/// Lock-free per-shard capture buffer: only its owning worker thread
/// appends to the active vector; only the driver touches the sealed one,
/// and the two trade places only while the workers are parked.
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
    active_.push_back(record);
  }

  // Growth stays geometric: an exact reserve(size + n) per batch would
  // copy the whole buffer on every batch.
  void on_delivery_batch(const sim::BatchedEvent* events,
                         std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      on_delivery(events[i].at, events[i].payload);
    }
  }

  /// Swaps the active records into the (committed, empty) sealed slot;
  /// the active side keeps the old sealed capacity. Returns the count.
  std::size_t seal() {
    FTGCS_ASSERT(sealed_.empty());
    std::swap(active_, sealed_);
    return sealed_.size();
  }

  std::vector<Record>& sealed() { return sealed_; }

  // Merge cursor over the sorted sealed records.
  bool drained() const { return head_ == sealed_.size(); }
  const Record& head() const { return sealed_[head_]; }
  const Record& pop() { return sealed_[head_++]; }

  /// Drops the merged records, keeping the capacity for a later window.
  void clear_sealed() {
    sealed_.clear();
    head_ = 0;
  }

 private:
  std::vector<Record> active_;  ///< the worker's capture target
  std::vector<Record> sealed_;  ///< awaiting the driver's commit
  std::size_t head_ = 0;        ///< next sealed record the merge emits
};

TraceCollector::TraceCollector(const std::string& path) : writer_(path) {}

TraceCollector::~TraceCollector() = default;

TraceSink* TraceCollector::shard_sink(int shard) {
  while (static_cast<int>(shards_.size()) <= shard) {
    shards_.push_back(std::make_unique<ShardBuffer>());
  }
  return shards_[static_cast<std::size_t>(shard)].get();
}

void TraceCollector::seal() {
  std::uint64_t captured = 0;
  for (auto& shard : shards_) captured += shard->seal();
  // The previous seal's records may still be in commit_sealed() while
  // these were captured: both sets were held at once.
  buffer_peak_ = std::max(buffer_peak_, sealed_records_ + captured);
  sealed_records_ = captured;
}

void TraceCollector::commit_sealed() {
  if (finished_) return;
  // Key ties are whole-record ties (trace/format.h), so any correct sort and
  // merge writes the same bytes, whatever the shard interleaving and capture
  // order. Each buffer is sorted in place; a k-way merge over the shard
  // heads (a linear scan: shard counts are small) streams into the writer.
  // A capture buffer is in fire order, which is already key order on
  // continuously sampled delays; the sort is then one linear check.
  for (auto& shard : shards_) {
    support::sort_nearly_sorted(shard->sealed(),
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
  for (auto& shard : shards_) shard->clear_sealed();
}

void TraceCollector::commit() {
  if (finished_) return;
  commit_sealed();
  sealed_records_ = 0;  // nothing is captured concurrently from here on
  seal();
  commit_sealed();
  sealed_records_ = 0;
}

void TraceCollector::finish() {
  if (finished_) return;
  commit();
  finished_ = true;
  writer_.finish();
}

}  // namespace ftgcs::trace
