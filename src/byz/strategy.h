// Byzantine adversary framework.
//
// Faulty nodes are fully Byzantine (paper §2, "Faults"): arbitrary
// behaviour, no broadcast requirement. A Strategy scripts one faulty node.
// Strategies are omniscient where useful: the system feeds them the round
// schedule of a designated correct node in their cluster (`on_reference_
// round`), which a real adversary could reconstruct by observing traffic.
//
// The only physical constraint the adversary cannot break is the channel:
// a message between neighbors is in transit for a time in [d−U, d]. Since
// the adversary chooses *when* to send, this still yields arbitrary
// arrival times; strategies simply schedule sends. A scheduled send is a
// typed event to the hosting ByzantineNode, so adversarial traffic takes
// the same allocation-free path as every other event.
#pragma once

#include <memory>

#include "core/params.h"
#include "net/augmented.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ftgcs::byz {

/// Round observation of a correct node in the faulty node's cluster.
struct RoundInfo {
  int round = 0;
  sim::Time round_start = 0.0;          ///< Newtonian round start
  sim::Time predicted_pulse = 0.0;      ///< Newtonian time of its pulse
  double logical_round_start = 0.0;     ///< (r−1)·T
};

struct AttackContext {
  int self = -1;
  int cluster = -1;
  int index_in_cluster = -1;
  sim::Simulator* sim = nullptr;
  net::Network* net = nullptr;
  const net::AugmentedTopology* topo = nullptr;
  const core::Params* params = nullptr;
  sim::Rng rng{0};
  /// The hosting ByzantineNode's simulator sink (set by its constructor).
  sim::SinkId sink = sim::kInvalidSink;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Called once at system start. The default does nothing; round-driven
  /// strategies act from on_reference_round instead.
  virtual void start(AttackContext& ctx) { (void)ctx; }

  /// A pulse arrived at the faulty node.
  virtual void on_pulse(AttackContext& ctx, const net::Pulse& pulse,
                        sim::Time now) {
    (void)ctx;
    (void)pulse;
    (void)now;
  }

  /// The reference correct node in this cluster began a round.
  virtual void on_reference_round(AttackContext& ctx, const RoundInfo& info) {
    (void)ctx;
    (void)info;
  }

  /// A tick the strategy posted to its host fired.
  virtual void on_tick(AttackContext& ctx) { (void)ctx; }
};

/// Hosts one strategy: owns the context, is the faulty id's network sink
/// and the simulator sink of every event its strategy schedules.
class ByzantineNode final : public net::PulseSink, public sim::EventSink {
 public:
  ByzantineNode(AttackContext ctx, std::unique_ptr<Strategy> strategy);

  void start();
  void on_pulse(const net::Pulse& pulse, sim::Time now) override;
  void on_reference_round(const RoundInfo& info);

  /// sim::EventSink: a send or tick the strategy scheduled fires.
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

  int id() const { return ctx_.self; }

 private:
  AttackContext ctx_;
  std::unique_ptr<Strategy> strategy_;
};

}  // namespace ftgcs::byz
