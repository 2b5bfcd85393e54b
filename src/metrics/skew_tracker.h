// Ground-truth skew measurement.
//
// All quantities the paper bounds are computed here from system snapshots:
//
//   node-local skew     max |L_v − L_w| over augmented edges {v,w} ⊆ V\F
//   cluster-local skew  max |L_B − L_C| over cluster edges (B,C) ∈ E
//   intra-cluster skew  max over C of max |L_v − L_w|, v,w ∈ C\F
//   node/cluster global max over all correct pairs / all cluster pairs
//
// SkewProbe samples a system periodically via simulator events and keeps
// both the full time series and running maxima over a steady-state window.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/ftgcs_system.h"
#include "metrics/stats.h"
#include "net/augmented.h"
#include "sim/simulator.h"

namespace ftgcs::metrics {

struct SkewSample {
  sim::Time at = 0.0;
  double node_local = 0.0;
  double cluster_local = 0.0;
  double intra_cluster = 0.0;
  double node_global = 0.0;
  double cluster_global = 0.0;
};

/// Computes one sample from columnar node-state arrays + topology. This is
/// the allocation-light hot path: probes refill one SystemColumns buffer
/// and scan the arrays directly.
SkewSample measure_skews(const core::SystemColumns& columns,
                         const net::AugmentedTopology& topo);

/// Convenience overload over a row-of-structs snapshot (tests, examples).
SkewSample measure_skews(const core::SystemSnapshot& snapshot,
                         const net::AugmentedTopology& topo);

class SkewProbe final : public sim::EventSink {
 public:
  /// Samples `system` every `interval` (Newtonian) once started; samples
  /// taken at or after `steady_after` also feed the steady-state maxima.
  SkewProbe(core::FtGcsSystem& system, sim::Duration interval,
            sim::Time steady_after);

  /// Schedules the periodic sampling (call before running).
  void start();

  const std::vector<SkewSample>& samples() const { return samples_; }

  /// Maxima over samples with at >= steady_after.
  const SkewSample& steady_max() const { return steady_max_; }
  /// Maxima over all samples.
  const SkewSample& overall_max() const { return overall_max_; }

  bool has_steady_samples() const { return steady_samples_ > 0; }

  /// EventSink: the periodic kProbe tick.
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

 private:
  void sample_once();
  void schedule_next();

  core::FtGcsSystem& system_;
  sim::Duration interval_;
  sim::Time steady_after_;
  sim::Time t0_ = 0.0;             ///< start() time
  std::uint64_t next_sample_ = 0;  ///< k of the pending sample
  sim::SinkId self_ = sim::kInvalidSink;
  core::SystemColumns columns_;  ///< reused; probing allocates nothing
  std::vector<SkewSample> samples_;
  SkewSample steady_max_;
  SkewSample overall_max_;
  std::size_t steady_samples_ = 0;
};

}  // namespace ftgcs::metrics
