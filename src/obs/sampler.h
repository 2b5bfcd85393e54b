// ProbeSampler: the deterministic sim-time metrics series.
//
// One sampler = one JSONL file. The constructor writes a header row
// (schema id + topology shape + the monitor's envelope bounds) and
// registers the fixed metric schema; every probe boundary then calls
// sample(), which refills the per-probe histograms with one O(V + E)
// sweep over the columnar snapshot, updates gauges/counters from the
// ground-truth skew sample and the invariant monitor, and appends one
// JSON row. Everything serialized here is a pure function of (scenario,
// seed, probe time) — NEVER of the queue's lane routing or the shard
// count — so the file is bit-identical across `--shards {1,2,4,8}`;
// routing- and shard-dependent diagnostics go to the PhaseProfiler
// sidecar instead.
//
// Determinism of the sweep itself: nodes and edges are visited in node-id
// order (each undirected edge once, from its lower endpoint), so the
// float accumulations and histogram fills see one canonical order no
// matter how the run was executed.
//
// Allocation contract: after prewarm() the sample() path allocates
// nothing — the row buffer and histogram storage are capacity-pinned and
// the stdio buffer was forced into existence by the header write
// (pinned by the ScopedAllocGuard test in tests/test_obs_metrics.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/node_table.h"
#include "exp/topology_graph.h"
#include "metrics/skew_tracker.h"
#include "obs/metrics.h"
#include "support/stat_table.h"
#include "trace/monitor.h"

namespace ftgcs::obs {

/// Everything one probe feeds the sampler. `skews` and `columns` are
/// required; `monitor` is null when monitors are off (the margin and
/// violation fields are then not part of the schema); `m_lag` is only
/// read when the sampler was configured with measure_m_lag.
struct SampleContext {
  sim::Time at = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  const metrics::SkewSample* skews = nullptr;
  const core::SystemColumns* columns = nullptr;
  const trace::InvariantMonitor* monitor = nullptr;
  double m_lag = 0.0;
};

class ProbeSampler {
 public:
  struct Config {
    std::string path;
    /// Envelope bounds written into the header and (for each enabled
    /// family) tracked as a min-margin gauge. All zero = monitors off.
    trace::MonitorBounds bounds;
    bool monitors = false;
    bool measure_m_lag = false;
    /// Scale of the skew histograms (a time quantity derived from the
    /// run's params — e.g. the intra-cluster bound — so the bucket
    /// table is identical at every shard count). Must be > 0.
    double hist_scale = 1.0;
  };

  /// Builds the bucket table used by both skew histograms: linear
  /// resolution of scale/1000 up to scale/10, then ×1.25 geometric
  /// growth up to 64·scale.
  static LogLinearHistogram::Spec scaled_spec(double scale);

  /// `graph` borrows the run's topology, which must outlive the sampler.
  /// Opens `config.path` and writes the header row. Throws
  /// std::runtime_error naming the path if it cannot be created.
  ProbeSampler(Config config, exp::TopologyGraph graph);
  ~ProbeSampler();

  ProbeSampler(const ProbeSampler&) = delete;
  ProbeSampler& operator=(const ProbeSampler&) = delete;

  /// Capacity-pins the row buffer; call once before the probe loop to
  /// make the steady-state zero-allocation contract exact.
  void prewarm();

  /// One probe boundary: refill histograms, update the registry, append
  /// one JSONL row.
  void sample(const SampleContext& ctx);

  /// Flushes and closes the file (idempotent; also run by the dtor).
  /// Throws std::runtime_error naming the path if any write or the close
  /// failed; the dtor swallows that, so call it explicitly.
  void finish();

  std::uint64_t probes() const { return probes_; }
  std::uint64_t bytes() const { return bytes_; }

  /// Series summary; a sweep sums it over tasks. Deterministic, like the
  /// series itself.
  struct Stats {
    std::uint64_t files = 0;  ///< 1 per run that wrote a series
    std::uint64_t probes = 0;
    std::uint64_t bytes = 0;

    /// Field table (support/stat_table.h): the `--timing` footer's
    /// metrics line, printed when a file was written.
    static constexpr auto fields() {
      using enum support::Agg;
      using enum support::Plane;
      using S = Stats;
      return std::array{
          field<&S::files>("files", kSum, kDeterministic, "metrics"),
          field<&S::probes>("probes", kSum, kDeterministic, "metrics"),
          field<&S::bytes>("bytes", kSum, kDeterministic, "metrics")};
    }
  };
  /// Call after finish() for the closed file's totals.
  Stats stats() const { return {1, probes_, bytes_}; }
  const std::string& path() const { return path_; }
  MetricsRegistry& registry() { return registry_; }

 private:
  void write_header(const Config& config);

  std::string path_;
  exp::TopologyGraph graph_;
  bool measure_m_lag_ = false;
  std::FILE* file_ = nullptr;
  MetricsRegistry registry_;
  std::string line_;  ///< reused row buffer (reserved in prewarm)
  std::uint64_t probes_ = 0;
  std::uint64_t bytes_ = 0;

  // Registered storage (owned by registry_; raw pointers are stable).
  Counter* events_ = nullptr;
  Counter* messages_ = nullptr;
  LogLinearHistogram* local_hist_ = nullptr;
  LogLinearHistogram* global_hist_ = nullptr;
  Gauge* cluster_local_ = nullptr;
  Gauge* cluster_global_ = nullptr;
  Gauge* intra_max_ = nullptr;
  Gauge* m_lag_ = nullptr;
  Counter* violations_ = nullptr;
  Gauge* margin_local_ = nullptr;
  Gauge* margin_global_ = nullptr;
  Gauge* margin_intra_ = nullptr;
  Gauge* margin_m_lag_ = nullptr;
};

}  // namespace ftgcs::obs
