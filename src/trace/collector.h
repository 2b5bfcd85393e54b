// Capture-side glue between the per-shard delivery taps and one canonical
// trace file.
//
// Each shard's Network gets its own TraceSink (shard_sink(s)) appending
// fired deliveries to a private buffer — no locks, no cross-thread
// traffic; a shard buffer is touched only by its own worker thread while
// the sharded driver is parked at the phase barriers. At every quiesced
// probe boundary (all shards advanced to a common time t, workers parked —
// which is exactly the state after FtGcsSystem::run_until(t) or
// par::ShardedFtGcsSystem::run_until(t) returns) the driver calls
// commit(): each pending buffer is sorted in place under the canonical
// record key, and a k-way merge of the buffers streams straight to the
// writer. Memory between commits is the shard buffers alone — one probe
// interval's traffic, with no concatenation copy — and the resulting byte
// stream is identical for every shard count and queue backend (see
// format.h for why the canonical key makes the merge partition-invariant).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/stat_table.h"
#include "trace/format.h"
#include "trace/sink.h"
#include "trace/writer.h"

namespace ftgcs::trace {

class TraceCollector {
 public:
  /// Opens the trace file at `path` (throws std::runtime_error on failure).
  explicit TraceCollector(const std::string& path);
  ~TraceCollector();  // out-of-line: ShardBuffer is incomplete here

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// The capture tap for `shard` (creating buffers up to that index). Must
  /// be called before the shard's worker starts firing events; the returned
  /// sink is owned by the collector and valid for its lifetime.
  TraceSink* shard_sink(int shard);

  /// Merges everything captured since the last commit into the canonical
  /// stream. Caller contract: every shard is quiesced at a common time
  /// (no worker inside run_until) — the phase barriers of the sharded
  /// driver publish the buffer writes.
  void commit();

  /// commit() + end marker + trailer. Idempotent.
  void finish();

  std::uint64_t records() const { return writer_.records(); }
  std::uint64_t bytes_written() const { return writer_.bytes_written(); }

  /// Capture summary; a sweep sums it over tasks. Deterministic: the
  /// bytes are identical at every shard count.
  struct Stats {
    std::uint64_t files = 0;  ///< 1 per run that captured a trace
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;

    /// Field table (support/stat_table.h): the `--timing` footer's trace
    /// line, printed when a file was written.
    static constexpr auto fields() {
      using enum support::Agg;
      using enum support::Plane;
      using S = Stats;
      return std::array{
          field<&S::files>("files", kSum, kDeterministic, "trace"),
          field<&S::records>("records", kSum, kDeterministic, "trace"),
          field<&S::bytes>("bytes", kSum, kDeterministic, "trace")};
    }
  };
  /// Call after finish() for the sealed file's totals.
  Stats stats() const { return {1, records(), bytes_written()}; }

  /// Byte half of a replay cursor: the file offset one past the last
  /// committed record (exact even while the frame is buffered).
  std::uint64_t cursor_offset() const { return writer_.next_record_offset(); }

 private:
  class ShardBuffer;

  TraceWriter writer_;
  std::vector<std::unique_ptr<ShardBuffer>> shards_;
  bool finished_ = false;
};

}  // namespace ftgcs::trace
