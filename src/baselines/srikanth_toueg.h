// Srikanth–Toueg pulse synchronization (Appendix A of the paper; original
// in [20]) — the other classic Byzantine-tolerant algorithm on a clique,
// used here as a baseline against ClusterSync (Lynch–Welch).
//
// Propose-and-pull, simulated rounds:
//  * every node, when its hardware clock reaches the next round's timeout,
//    broadcasts PROPOSE(r);
//  * a node that has received f+1 distinct PROPOSE(r) joins (sends its
//    own PROPOSE(r) even if its timeout has not expired — the "pull");
//  * a node that has received n−f distinct PROPOSE(r) fires the round-r
//    pulse, sets its logical clock to r·P, and schedules the next timeout
//    P after the pulse (on its hardware clock).
//
// Guarantees (n > 3f): pulses of correct nodes are within O(d) of each
// other — but, unlike Lynch–Welch, the skew does NOT shrink with the
// delay uncertainty U: the paper's point that Lynch–Welch achieves
// O(U + ρd) and is therefore the better building block (experiment E13).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "clocks/drift_model.h"
#include "clocks/hardware_clock.h"
#include "clocks/logical_clock.h"
#include "net/channel.h"
#include "net/graph.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ftgcs::baselines {

class SrikanthTouegNode final : public net::PulseSink,
                                public sim::EventSink {
 public:
  struct Config {
    int n = 0;          ///< clique size
    int f = 0;          ///< fault budget, n > 3f
    double period = 0;  ///< nominal round period P (hardware time)
  };

  SrikanthTouegNode(sim::Simulator& simulator, net::Network& network,
                    const Config& cfg, int node_id);

  void start();
  void on_pulse(const net::Pulse& pulse, sim::Time now) override;
  void set_hardware_rate(sim::Time now, double rate);

  /// sim::EventSink: the round timeout fires (kTimer).
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

  double logical(sim::Time now) const { return clock_.read(now); }
  int round() const { return round_; }
  sim::Time last_fire_time() const { return last_fire_; }

 private:
  void schedule_timeout();
  void propose(int round);
  void fire(int round, sim::Time now);

  sim::Simulator& sim_;
  net::Network& net_;
  Config cfg_;
  int id_;
  sim::SinkId self_ = sim::kInvalidSink;

  clocks::HardwareClock hardware_;
  clocks::LogicalClock clock_;

  int round_ = 0;          ///< last fired round
  int proposed_ = 0;       ///< highest round we have proposed
  double next_timeout_ = 0.0;  ///< hardware time of the next spontaneous propose
  sim::EventId timeout_event_{};
  sim::Time last_fire_ = 0.0;

  /// round -> distinct proposers heard.
  std::map<int, std::set<int>> proposals_;
};

/// A clique of Srikanth–Toueg nodes with optional silent faults.
class SrikanthTouegSystem {
 public:
  struct Config {
    int n = 4;
    int f = 1;
    double rho = 0.0;
    double d = 1.0;
    double U = 0.1;
    double period = 10.0;
    std::uint64_t seed = 1;
    int silent_faults = 0;  ///< first `silent_faults` nodes never send
    std::unique_ptr<net::DelayModel> delay_model;
    std::unique_ptr<clocks::DriftModel> drift_model;
  };

  explicit SrikanthTouegSystem(Config config);

  void start();
  void run_until(sim::Time t) { sim_.run_until(t); }

  sim::Simulator& simulator() { return sim_; }
  bool is_correct(int node) const { return nodes_[node] != nullptr; }

  /// Max |L_v − L_w| over correct pairs.
  double skew() const;
  /// Spread of the most recent pulse (fire) times over correct nodes.
  double pulse_spread() const;
  int min_round() const;

 private:
  Config config_;
  sim::Simulator sim_;
  net::Graph clique_;  ///< n-clique; network_ borrows its adjacency
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<SrikanthTouegNode>> nodes_;
  std::unique_ptr<clocks::DriftModel> drift_;
};

}  // namespace ftgcs::baselines
