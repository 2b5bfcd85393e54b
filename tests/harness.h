// Shared test harness: a single cluster of ClusterSyncEngines wired over a
// real Network, with optional passive observers — the minimal substrate for
// testing Algorithm 1 and Corollary 3.5 in isolation.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/cluster_sync.h"
#include "core/params.h"
#include "net/augmented.h"
#include "net/channel.h"
#include "net/graph.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ftgcs::core {

/// Closure-backed hooks for rigs that script an engine: each unset closure
/// is a no-op. Owned by the rig, which must keep it alive while the engine
/// runs.
class ClusterSyncCallbacks final : public ClusterSyncHooks {
 public:
  std::function<void(int round)> round_start;
  std::function<void(int round, sim::Time now)> pulse;
  std::function<void(int round, double delta_corr, bool violated)>
      correction;

  void on_round_start(int round) override {
    if (round_start) round_start(round);
  }
  void on_pulse_instant(int round, sim::Time now) override {
    if (pulse) pulse(round, now);
  }
  void on_correction(int round, double delta_corr, bool violated) override {
    if (correction) correction(round, delta_corr, violated);
  }
};

}  // namespace ftgcs::core

namespace ftgcs::testing {

/// One cluster of `k` active engines (node ids 0..k−1 in cluster 0). If
/// `observers > 0`, an adjacent cluster 1 exists whose first `observers`
/// members run passive replicas of cluster 0 (the remaining members of
/// cluster 1 are inert; they exist only for topology bookkeeping).
class ClusterHarness {
 public:
  struct Options {
    int active = 0;        ///< live members of cluster 0 (≤ k; rest silent)
    int observers = 0;     ///< passive replicas in cluster 1
    std::uint64_t seed = 1;
    std::unique_ptr<net::DelayModel> delay_model;  ///< null → Uniform
  };

  ClusterHarness(const core::Params& params, Options options)
      : params_(params),
        topo_(options.observers > 0 ? net::Graph::line(2)
                                    : net::Graph::line(1),
              params.k),
        network_(sim_, &topo_.adjacency(),
                 options.delay_model
                     ? std::move(options.delay_model)
                     : std::make_unique<net::UniformDelay>(params.d,
                                                           params.U),
                 sim::Rng(options.seed)) {
    sim::Rng master(options.seed ^ 0xabcdULL);
    const int active = options.active > 0 ? options.active : params.k;

    for (int i = 0; i < params.k; ++i) {
      if (i >= active) {
        hooks_.push_back(nullptr);
        engines_.push_back(nullptr);  // silent (crashed from start)
        network_.register_null_handler(i);
        continue;
      }
      auto engine = std::make_unique<core::ClusterSyncEngine>(
          sim_, sync_, core::ClusterSyncMode::kActive, 1, 1.0,
          master.fork(10 + i));
      engine->set_own_index(i);
      auto hooks = std::make_unique<core::ClusterSyncCallbacks>();
      hooks->pulse = [this, i](int, sim::Time) {
        net::Pulse pulse;
        pulse.sender = i;
        pulse.kind = net::PulseKind::kClusterPulse;
        network_.broadcast(i, pulse);
      };
      engine->set_hooks(hooks.get());
      attach(i, *engine);
      hooks_.push_back(std::move(hooks));
      engines_.push_back(std::move(engine));
    }

    // Inert members of the observer cluster still receive broadcasts.
    if (options.observers > 0) {
      for (int j = options.observers; j < params.k; ++j) {
        network_.register_null_handler(topo_.node(1, j));
      }
    }

    for (int j = 0; j < options.observers; ++j) {
      auto replica = std::make_unique<core::ClusterSyncEngine>(
          sim_, sync_, core::ClusterSyncMode::kPassive, 1, 1.0,
          master.fork(100 + j));
      attach(topo_.node(1, j), *replica);
      observers_.push_back(std::move(replica));
    }
  }

  void start() {
    for (auto& engine : engines_) {
      if (engine) engine->start();
    }
    for (auto& observer : observers_) observer->start();
  }

  void run_rounds(double rounds) { sim_.run_until(rounds * params_.T); }

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return network_; }
  const net::AugmentedTopology& topo() const { return topo_; }

  core::ClusterSyncEngine& engine(int i) { return *engines_[i]; }
  /// Member i's hooks; `pulse` broadcasts its cluster pulse unless a test
  /// replaces it.
  core::ClusterSyncCallbacks& hooks(int i) { return *hooks_[i]; }
  bool has_engine(int i) const { return engines_[i] != nullptr; }
  core::ClusterSyncEngine& observer(int j) { return *observers_[j]; }

  int k() const { return params_.k; }

  /// Max |L_v − L_w| over live engines at the current time.
  double skew() const {
    double lo = 0.0, hi = 0.0;
    bool any = false;
    for (const auto& engine : engines_) {
      if (!engine) continue;
      const double value = engine->clock().read(sim_.now());
      if (!any) {
        lo = hi = value;
        any = true;
      } else {
        lo = std::min(lo, value);
        hi = std::max(hi, value);
      }
    }
    return any ? hi - lo : 0.0;
  }

 private:
  /// Feeds `engine` (member or observer) cluster 0's pulses.
  void attach(int node, core::ClusterSyncEngine& engine) {
    sinks_.push_back(
        std::make_unique<core::ClusterMemberSink>(topo_, 0, engine));
    network_.register_handler(node, sinks_.back().get());
  }

  core::Params params_;
  core::ClusterSyncConfig sync_ = core::ClusterSyncConfig::from(params_);
  sim::Simulator sim_;
  net::AugmentedTopology topo_;
  net::Network network_;
  std::vector<std::unique_ptr<core::ClusterSyncCallbacks>> hooks_;
  std::vector<std::unique_ptr<core::ClusterSyncEngine>> engines_;
  std::vector<std::unique_ptr<core::ClusterSyncEngine>> observers_;
  std::vector<std::unique_ptr<core::ClusterMemberSink>> sinks_;
};

}  // namespace ftgcs::testing
