#include "core/estimates.h"

#include <algorithm>
#include <new>

#include "support/assert.h"

namespace ftgcs::core {

EstimateBank::EstimateBank(sim::Simulator& simulator,
                           const ClusterSyncConfig& cfg,
                           const std::vector<int>& adjacent_clusters,
                           double initial_hardware_rate, sim::Rng& rng,
                           const std::vector<int>& start_rounds)
    : order_(adjacent_clusters) {
  FTGCS_EXPECTS(start_rounds.empty() ||
                start_rounds.size() == order_.size());
  static_assert(alignof(ClusterSyncEngine) <=
                __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  replicas_ = static_cast<ClusterSyncEngine*>(
      ::operator new(order_.size() * sizeof(ClusterSyncEngine)));
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const int cluster = order_[i];
    FTGCS_EXPECTS(std::count(order_.begin(), order_.end(), cluster) == 1);
    new (replicas_ + i) ClusterSyncEngine(
        simulator, cfg, ClusterSyncMode::kPassive,
        start_rounds.empty() ? 1 : start_rounds[i], initial_hardware_rate,
        rng.fork(static_cast<std::uint64_t>(cluster) + 1));
  }
  by_cluster_.resize(order_.size());
  for (std::size_t i = 0; i < by_cluster_.size(); ++i) by_cluster_[i] = i;
  std::sort(by_cluster_.begin(), by_cluster_.end(),
            [this](std::size_t a, std::size_t b) {
              return order_[a] < order_[b];
            });
}

EstimateBank::~EstimateBank() {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    replicas_[i].~ClusterSyncEngine();
  }
  ::operator delete(replicas_);
}

std::size_t EstimateBank::index_for(int cluster) const {
  const auto it = std::find(order_.begin(), order_.end(), cluster);
  FTGCS_EXPECTS(it != order_.end() && "cluster not adjacent");
  return static_cast<std::size_t>(it - order_.begin());
}

void EstimateBank::start() {
  for (std::size_t i : by_cluster_) replicas_[i].start();
}

double EstimateBank::estimate(int cluster, sim::Time now) const {
  return replicas_[index_for(cluster)].clock().read(now);
}

std::vector<double> EstimateBank::all_estimates(sim::Time now) const {
  std::vector<double> values;
  values.reserve(order_.size());
  for (int cluster : order_) values.push_back(estimate(cluster, now));
  return values;
}

void EstimateBank::set_hardware_rate(sim::Time now, double rate) {
  for (std::size_t i : by_cluster_) {
    replicas_[i].set_hardware_rate(now, rate);
  }
}

void EstimateBank::halt() {
  for (std::size_t i = 0; i < order_.size(); ++i) replicas_[i].halt();
}

std::uint64_t EstimateBank::violations() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    total += replicas_[i].violations();
  }
  return total;
}

ClusterSyncEngine& EstimateBank::replica(int cluster) {
  return replicas_[index_for(cluster)];
}

}  // namespace ftgcs::core
