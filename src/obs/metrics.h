// MetricsRegistry: the deterministic metrics plane's catalogue.
//
// Counters, gauges, and log-linear histograms are registered ONCE at
// setup (names + storage allocated then, never again); sampling mutates
// the registered storage in place and serialization walks the entries in
// registration order. That gives the plane its two contracts:
//
//   * schema stability — every JSONL row of one run carries exactly the
//     registered fields, in registration order, so rows are mechanically
//     comparable across probes, runs, and shard counts;
//   * zero steady-state allocation — after ProbeSampler::prewarm() the
//     whole sample→serialize→write path touches only preallocated
//     storage (the ScopedAllocGuard pin in tests/test_obs_metrics.cpp).
//
// Only run-invariant quantities may be registered here: anything that
// depends on the queue's lane routing or the shard count (narrow/wide
// event mix, mailbox depths, cut traffic) belongs to the nondeterministic
// sidecar written by PhaseProfiler, never to this registry — the
// deterministic series is CI-compared byte-for-byte across
// `--shards {1,2,4}`. Run diagnostics carry that distinction as the
// support::Plane tag of their field-table row (support/stat_table.h):
// only kDeterministic stats may feed the series, and
// tests/test_timing_footer.cpp checks the tag holds across shard counts.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace ftgcs::obs {

/// Serializes `v` as a JSON number (printf %.17g: round-trips exactly,
/// and is a pure function of the bits, so identical doubles serialize to
/// identical bytes on every backend). The value must be finite — %.17g
/// would print `inf`/`nan`, which is not JSON; the registry only ever
/// holds finite values by construction (margins are registered per
/// enabled envelope family only).
void append_json_double(std::string& out, double v);
void append_json_u64(std::string& out, std::uint64_t v);

struct Counter {
  std::uint64_t value = 0;
};

struct Gauge {
  double value = 0.0;
};

class MetricsRegistry {
 public:
  /// Registration (setup only; pointers remain stable — deque storage).
  Counter* add_counter(const std::string& name);
  Gauge* add_gauge(const std::string& name);
  /// A histogram serializes as three fields: `name_max` (exact running
  /// max), `name_p99`, `name_p50` (bucket upper bounds).
  LogLinearHistogram* add_histogram(const std::string& name,
                                    const LogLinearHistogram::Spec& spec);

  /// Appends `,"name":value` for every registered metric, registration
  /// order. Allocation-free once `out` has capacity (line_reserve_hint).
  void append_fields(std::string& out) const;

  /// Clears all histograms (per-probe distributions refill each sample).
  void clear_histograms();

  /// Capacity to reserve for one serialized row (upper bound: field
  /// names + 26 bytes per %.17g number + punctuation).
  std::size_t line_reserve_hint() const;


 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::size_t index;  ///< into the per-kind deque
  };

  std::vector<Entry> entries_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<LogLinearHistogram> histograms_;
};

}  // namespace ftgcs::obs
