// Capture-side glue between the per-shard delivery taps and one canonical
// trace file.
//
// Each shard's Network gets its own TraceSink (shard_sink(s)) appending
// fired deliveries to a private "active" buffer — no locks, no
// cross-thread traffic. A shard buffer holds a second, "sealed" vector
// that only the driver thread touches. Committing sorts each sealed
// vector in place under the canonical record key and streams a k-way
// merge of them straight to the writer; the resulting byte stream is
// identical for every shard count and queue backend (see format.h for
// why the canonical key makes the merge partition-invariant).
//
// Two ways in:
//   * commit() — at a quiesced probe boundary (every shard advanced to a
//     common time t, no worker inside run_until — the state after
//     FtGcsSystem::run_until(t) or par::ShardedFtGcsSystem::run_until(t)
//     returns): commits whatever is sealed, then seals and commits the
//     active buffers. The unsharded driver only ever uses this, also
//     between probes: it commits every minimum delay d − U of simulated
//     time, so its buffers hold about one window, as a sharded run's do.
//   * seal() / commit_sealed() — the sharded driver's stream, one safe
//     window at a time: after each window's finish barrier (workers
//     parked) seal() swaps every active buffer into its (empty) sealed
//     slot, and during the next window's run phase the otherwise idle
//     driver thread calls commit_sealed(). The workers append to their
//     active buffers meanwhile. The bytes do not change: every record of
//     window k precedes every record of window k + 1 under the canonical
//     key (time is its first field and the windows are disjoint time
//     ranges), and the writer cuts frames by size, not by commit call.
//     Memory is then two windows' traffic, not a probe interval's, and
//     a probe's commit() only has the last window left to merge.
// records() and cursor_offset() count committed records only, so read
// them after commit().
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
  /// stream: the sealed buffers first, then the active ones. Caller
  /// contract: every shard is quiesced at a common time (no worker inside
  /// run_until) — the phase barriers of the sharded driver publish the
  /// buffer writes. Throws std::runtime_error if the write fails.
  void commit();

  /// Moves every shard's active buffer into its sealed slot, which must
  /// have been committed (commit_sealed) since the previous seal. Caller
  /// contract: every worker is parked at a barrier; the records sealed
  /// must all precede, in key order, whatever the shards capture next.
  void seal();

  /// Merges the sealed buffers into the canonical stream and empties
  /// them. Touches no active buffer, so the workers may capture into
  /// theirs meanwhile. Throws std::runtime_error if the write fails.
  void commit_sealed();

  /// commit() + end marker + trailer. Idempotent.
  void finish();

  std::uint64_t records() const { return writer_.records(); }
  std::uint64_t bytes_written() const { return writer_.bytes_written(); }

  /// Capture summary; a sweep sums it over tasks.
  struct Stats {
    std::uint64_t files = 0;  ///< 1 per run that captured a trace
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    /// Most records the capture buffers held awaiting commit at one time.
    /// It moves with the shard count (a sharded run holds about two
    /// windows, an unsharded one about one), so it is engine-plane.
    std::uint64_t buffer_peak = 0;

    /// Field table (support/stat_table.h): the `--timing` footer's trace
    /// line, printed when a file was written. The file totals are
    /// deterministic: the bytes are identical at every shard count.
    static constexpr auto fields() {
      using enum support::Agg;
      using enum support::Plane;
      using S = Stats;
      return std::array{
          field<&S::files>("files", kSum, kDeterministic, "trace"),
          field<&S::records>("records", kSum, kDeterministic, "trace"),
          field<&S::bytes>("bytes", kSum, kDeterministic, "trace"),
          field<&S::buffer_peak>("buffer_peak", kMax, kEngine, "trace")};
    }
  };
  /// Call after finish() for the sealed file's totals.
  Stats stats() const {
    return {1, records(), bytes_written(), buffer_peak_};
  }

  /// Byte half of a replay cursor: the file offset one past the last
  /// committed record (exact even while the frame is buffered).
  std::uint64_t cursor_offset() const { return writer_.next_record_offset(); }

 private:
  class ShardBuffer;

  TraceWriter writer_;
  std::vector<std::unique_ptr<ShardBuffer>> shards_;
  /// Records handed over by the last seal() whose commit may still run
  /// concurrently with the next window's capture (0 after commit()).
  std::uint64_t sealed_records_ = 0;
  std::uint64_t buffer_peak_ = 0;
  bool finished_ = false;
};

}  // namespace ftgcs::trace
