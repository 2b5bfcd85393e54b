// Cluster-clock estimates (Corollary 3.5).
//
// A node v adjacent to cluster B estimates B's cluster clock by running a
// passive ClusterSync replica that listens to the pulses of B's members.
// The replica's logical clock — driven by v's own hardware clock, with
// γ ≡ 0 and the usual δ corrections — is the estimate L̃_vB(t). The
// Lynch–Welch analysis applies unchanged to the replica (its nominal rate
// lies in the same [1, ϑ_g] envelope), so |L̃_vB(t) − L_B(t)| ≤ E.
//
// EstimateBank owns one replica per adjacent cluster. The replicas are
// constructed in place, in adjacency order, in one heap block per bank;
// inside a system their receive lanes live in the NodeTable (adopt_lane),
// which routes every pulse, and their constants in the system's shared
// ClusterSyncConfig, so a replica keeps only its clock, timers, loopback
// stream and counters.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cluster_sync.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ftgcs::core {

class EstimateBank {
 public:
  /// Creates one passive replica per cluster in `adjacent_clusters`.
  /// `start_rounds`, if non-empty, gives each replica's initial round
  /// (parallel to `adjacent_clusters`); used when the observed clusters
  /// start with whole-round logical offsets and the estimates are assumed
  /// pre-synchronized (paper's flooding-based initialization). `cfg` is
  /// borrowed by every replica and must outlive the bank.
  EstimateBank(sim::Simulator& simulator, const ClusterSyncConfig& cfg,
               const std::vector<int>& adjacent_clusters,
               double initial_hardware_rate, sim::Rng& rng,
               const std::vector<int>& start_rounds = {});
  ~EstimateBank();

  EstimateBank(const EstimateBank&) = delete;
  EstimateBank& operator=(const EstimateBank&) = delete;

  /// Starts all replicas (at the global time-0 initialization).
  void start();

  /// L̃_vB(now) of the replica at position `index` in clusters() order
  /// (B = clusters()[index]).
  double estimate_at(std::size_t index, sim::Time now) const {
    return replicas_[index].clock().read(now);
  }

  const std::vector<int>& clusters() const { return order_; }

  /// Forwards a hardware-rate change to every replica clock.
  void set_hardware_rate(sim::Time now, double rate);

  /// Aggregate proper-execution violations across replicas.
  std::uint64_t violations() const;

  /// Crash-stop: halts every replica (see ClusterSyncEngine::halt).
  void halt();

  /// Replica at position `index` in clusters() order (NodeTable adoption).
  ClusterSyncEngine& replica_at(std::size_t index) {
    return replicas_[index];
  }

 private:
  std::vector<int> order_;
  /// Parallel to order_: order_.size() engines constructed in place in
  /// one block (engines register `this` with the simulator, so they never
  /// move).
  ClusterSyncEngine* replicas_ = nullptr;
  /// Indices into replicas_ in ascending-cluster order; start() and rate
  /// changes iterate this to keep the event schedule identical to the
  /// original (map-ordered) implementation.
  std::vector<std::size_t> by_cluster_;
};

}  // namespace ftgcs::core
