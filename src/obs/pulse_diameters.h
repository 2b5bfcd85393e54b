// Per-round pulse diameters ‖p(r)‖ (Definition B.7): the spread of the
// pulse instants of one cluster's correct members in round r, whose
// contraction Claim B.15 and Cor. B.13 predict (E3, E12). A PulseRecorder
// forwards every hook of a node, so recording changes nothing. A sharded
// run never splits a cluster, so distinct clusters may record
// concurrently.
#pragma once

#include <utility>
#include <vector>

#include "core/cluster_sync.h"
#include "sim/time_types.h"

namespace ftgcs::obs {

class PulseDiameters {
 public:
  /// `members[c]` is the number of members of cluster c that pulse every
  /// round; round r of cluster c is complete once all of them pulsed.
  explicit PulseDiameters(std::vector<int> members);

  /// A member of `cluster` pulsed in `round` (≥ 1) at time `at`.
  void record(int cluster, int round, sim::Time at);

  /// (round, ‖p(r)‖) for every round that some cluster completed, in
  /// round order; the diameter is the largest over the clusters that
  /// completed that round.
  std::vector<std::pair<int, double>> complete_rounds() const;

 private:
  struct Round {
    sim::Time min = 0.0;
    sim::Time max = 0.0;
    int count = 0;
  };

  std::vector<int> members_;
  std::vector<std::vector<Round>> rounds_;  ///< [cluster][round − 1]
};

/// Forwards every hook of one engine to `next`, recording the engine's
/// pulse instants into `diameters` under `cluster`.
class PulseRecorder final : public core::ClusterSyncHooks {
 public:
  PulseRecorder(PulseDiameters& diameters, int cluster,
                core::ClusterSyncHooks* next)
      : diameters_(diameters), cluster_(cluster), next_(next) {}

  void on_round_start(int round) override { next_->on_round_start(round); }
  void on_pulse_instant(int round, sim::Time now) override {
    diameters_.record(cluster_, round, now);
    next_->on_pulse_instant(round, now);
  }
  void on_correction(int round, double delta_corr, bool violated) override {
    next_->on_correction(round, delta_corr, violated);
  }

 private:
  PulseDiameters& diameters_;
  int cluster_;
  core::ClusterSyncHooks* next_;
};

}  // namespace ftgcs::obs
