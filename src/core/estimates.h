// Cluster-clock estimates (Corollary 3.5).
//
// A node v adjacent to cluster B estimates B's cluster clock by running a
// passive ClusterSync replica that listens to the pulses of B's members.
// The replica's logical clock — driven by v's own hardware clock, with
// γ ≡ 0 and the usual δ corrections — is the estimate L̃_vB(t). The
// Lynch–Welch analysis applies unchanged to the replica (its nominal rate
// lies in the same [1, ϑ_g] envelope), so |L̃_vB(t) − L_B(t)| ≤ E.
//
// EstimateBank owns one replica per adjacent cluster and routes pulses.
// The replicas are constructed in place, in adjacency order, in one heap
// block per bank; inside a system their receive lanes live in the
// NodeTable (adopt_lane) and their constants in the system's shared
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

  /// Routes a pulse iff `cluster` has a replica here; returns whether it
  /// was routed. One scan replaces the caller's adjacency check + the
  /// routing lookup on the per-pulse hot path.
  bool route_pulse(int cluster, int member_index, sim::Time now);

  /// L̃_vB(now) for adjacent cluster B = `cluster`.
  double estimate(int cluster, sim::Time now) const;

  /// L̃ of the replica at position `index` in clusters() order — the
  /// round-start trigger path, which iterates positions and must not pay
  /// the by-cluster scan per estimate.
  double estimate_at(std::size_t index, sim::Time now) const {
    return replicas_[index].clock().read(now);
  }

  /// Estimates of all adjacent clusters, in the order given at
  /// construction (matching `clusters()`).
  std::vector<double> all_estimates(sim::Time now) const;

  const std::vector<int>& clusters() const { return order_; }

  /// Forwards a hardware-rate change to every replica clock.
  void set_hardware_rate(sim::Time now, double rate);

  /// Aggregate proper-execution violations across replicas.
  std::uint64_t violations() const;

  /// Crash-stop: halts every replica (see ClusterSyncEngine::halt).
  void halt();

  ClusterSyncEngine& replica(int cluster);

  /// Replica at position `index` in clusters() order (NodeTable adoption).
  ClusterSyncEngine& replica_at(std::size_t index) {
    return replicas_[index];
  }

 private:
  int find_index(int cluster) const;      ///< −1 if not adjacent
  std::size_t index_for(int cluster) const;  ///< aborts if not adjacent

  std::vector<int> order_;
  /// Parallel to order_: order_.size() engines constructed in place in
  /// one block (engines register `this` with the simulator, so they never
  /// move). Pulse routing is a linear scan over order_ — adjacency degrees
  /// are small, and the scan beats a map's pointer chase on every
  /// delivery.
  ClusterSyncEngine* replicas_ = nullptr;
  /// Indices into replicas_ in ascending-cluster order; start() and rate
  /// changes iterate this to keep the event schedule identical to the
  /// original (map-ordered) implementation.
  std::vector<std::size_t> by_cluster_;
};

}  // namespace ftgcs::core
