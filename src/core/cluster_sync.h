// ClusterSync — Algorithm 1 of the paper (Lynch–Welch with amortized
// corrections), usable in two modes:
//
//  * active  — a cluster member: broadcasts a pulse each round and applies
//              the approximate-agreement correction to its logical clock.
//  * passive — the estimate of Corollary 3.5: a node adjacent to a cluster
//              simulates ClusterSync, listening to the cluster's pulses
//              without sending; its logical clock is the estimate L̃.
//
// Round structure (logical durations; r counts from 1, round r starts at
// logical time (r−1)·T):
//   phase 1 [0, τ1):        δ_v = 1; at logical offset τ1 broadcast pulse
//   phase 2 [τ1, τ1+τ2):    collect pulses; at the end compute
//                           ∆_v(r) = (S^(f+1) + S^(k−f)) / 2
//   phase 3 [τ1+τ2, T):     δ_v = 1 − (1+1/ϕ)·∆/(τ3+∆)  (Lemma 3.1:
//                           the nominal round length becomes T + ∆)
//
// Offsets are measured in the node's own logical time relative to the
// arrival of its own pulse: τ_wv = L_v(t_wv) − L_v(t_vv) (Algorithm 1
// line 10). A passive engine has no physical loopback; it simulates one
// with a delay drawn from the same [d−U, d] interval.
//
// Robustness rules (behaviour under faults, not specified by the
// pseudo-code but required for a running system):
//  * only pulses arriving during phases 1–2 of the current round count;
//    later ones are dropped and counted (`dropped_pulses`);
//  * the first pulse per member per round wins; duplicates are counted;
//  * members whose pulse is missing at the end of phase 2 are clamped to
//    the end of the collection window (the latest time the pulse could
//    still arrive), which lands them in the trimmed top-f after sorting;
//  * if |∆| > ϕ·τ3 (proper-execution condition 3 of Def. B.3 violated —
//    possible only under over-budget attacks), ∆ is clamped and a
//    violation is counted, keeping δ_v within [0, 2/(1−ϕ)] (Lemma B.4).
#pragma once

#include <cstdint>
#include <memory>

#include "clocks/logical_clock.h"
#include "clocks/logical_timer.h"
#include "core/receive_lane.h"
#include "net/augmented.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ftgcs::core {

struct Params;

/// The constants of Algorithm 1, identical for every engine of a system:
/// built once (per system, per rig) and held by reference — it must
/// outlive every engine constructed from it. What differs per engine (the
/// mode and the first round) is a constructor argument.
struct ClusterSyncConfig {
  double tau1 = 0.0;
  double tau2 = 0.0;
  double tau3 = 0.0;
  double phi = 0.0;
  double mu = 0.0;
  int f = 0;          ///< trim budget
  int k = 1;          ///< cluster size (number of expected senders)
  double d = 0.0;     ///< channel delay bound (passive loopback simulation)
  double U = 0.0;     ///< channel uncertainty (passive loopback simulation)

  /// The engine constants of a parameter set.
  static ClusterSyncConfig from(const Params& params);
};

enum class ClusterSyncMode : std::uint8_t {
  kActive,   ///< a cluster member (broadcasts, corrects its clock)
  kPassive,  ///< the estimate of Corollary 3.5 (listens only)
};

/// The owner's view of an engine's round structure. Non-owning: the
/// engine keeps a plain pointer (see set_hooks); an engine without hooks
/// — every passive replica inside a system — calls nothing.
class ClusterSyncHooks {
 public:
  /// Invoked at each round start, after δ_v ← 1 and before timers are
  /// armed. The intercluster layer sets γ_v here (Algorithm 2).
  virtual void on_round_start(int /*round*/) {}

  /// Active mode: invoked at the pulse instant; the owner broadcasts the
  /// physical pulse here. Passive mode: invoked at the simulated pulse
  /// instant p̃ (no send).
  virtual void on_pulse_instant(int /*round*/, sim::Time /*now*/) {}

  /// Invoked after the phase-2 computation with the correction ∆_v(r)
  /// (pre-clamping) and whether the proper-execution condition |∆| ≤ ϕ·τ3
  /// was violated.
  virtual void on_correction(int /*round*/, double /*delta_corr*/,
                             bool /*violated*/) {}

 protected:
  ~ClusterSyncHooks() = default;  // never deleted through the interface
};

class ClusterSyncEngine final : public clocks::LogicalTimerSet::Client,
                                public sim::EventSink {
 public:
  /// `cfg` is borrowed and must outlive the engine. `start_round` is the
  /// first round executed at start(): a value m+1 starts the logical
  /// clock at m·T — used to initialize a cluster with a logical offset
  /// that is a whole number of rounds (experiments on skew absorption;
  /// models the paper's "newly inserted edges" initialization variant).
  /// `loopback_rng` is used only in passive mode (virtual self-delay).
  ClusterSyncEngine(sim::Simulator& simulator, const ClusterSyncConfig& cfg,
                    ClusterSyncMode mode, int start_round,
                    double initial_hardware_rate, sim::Rng loopback_rng);
  ~ClusterSyncEngine();

  ClusterSyncEngine(const ClusterSyncEngine&) = delete;
  ClusterSyncEngine& operator=(const ClusterSyncEngine&) = delete;

  /// Begins round 1 at the current simulation time (assumed to be the
  /// global start; the paper assumes simultaneous initialization).
  void start();

  /// Delivers the round pulse of cluster member `member_index` (0-based
  /// within the observed cluster). In active mode the engine's own pulse
  /// arrives here too (loopback), with `member_index` = own index.
  void on_member_pulse(int member_index, sim::Time now);

  /// The engine's logical clock: L_v for active mode, the estimate L̃ for
  /// passive mode.
  clocks::LogicalClock& clock() { return clock_; }
  const clocks::LogicalClock& clock() const { return clock_; }

  /// Forwards a hardware-rate change to the logical clock.
  void set_hardware_rate(sim::Time now, double rate) {
    clock_.set_hardware_rate(now, rate);
  }

  /// Current round (1-based; 0 before start()).
  int round() const { return round_; }

  /// True while in phases 1–2 of the current round (collecting pulses).
  bool listening() const { return lane_ != nullptr && lane_->listening != 0; }

  /// Logical time at which the current round began: (r−1)·T (Lemma B.6);
  /// 0 before start().
  double round_start_logical() const {
    return round_ == 0 ? 0.0 : (round_ - 1) * round_length();
  }

  double round_length() const { return cfg_.tau1 + cfg_.tau2 + cfg_.tau3; }

  /// Installs the owner's hooks (nullptr: none). Non-owning: `hooks`
  /// must outlive the engine or be unset first.
  void set_hooks(ClusterSyncHooks* hooks) { hooks_ = hooks; }
  ClusterSyncHooks* hooks() const { return hooks_; }

  // ---- statistics ----------------------------------------------------------
  std::uint64_t violations() const { return violations_; }
  std::uint64_t dropped_pulses() const {
    return lane_ != nullptr ? lane_->dropped : 0;
  }
  std::uint64_t duplicate_pulses() const {
    return lane_ != nullptr ? lane_->duplicates : 0;
  }
  double last_correction() const { return last_correction_; }

  /// Armed logical timers (diagnostics; 0 after halt()).
  std::size_t armed_timers() const { return timers_.armed_count(); }

  /// Rounds that closed with fewer than k−f member pulses received: a
  /// correct, synchronized cluster always delivers at least k−f, so a
  /// starved round means this node has fallen out of the round structure
  /// (e.g. a transient fault beyond the proper-execution margins). The
  /// plain algorithm cannot re-acquire on its own — that is what the
  /// self-stabilizing wrapper of [8] adds — but the condition is
  /// detectable, and this counter surfaces it.
  std::uint64_t starved_rounds() const { return starved_rounds_; }

  /// Index of this node within the observed cluster (active mode only);
  /// set by the owner before start(). Passive mode ignores it.
  void set_own_index(int index) {
    own_index_ = index;
    if (active() && lane_ != nullptr) lane_->own_index = index;
  }

  /// Hands the engine its hot receive state in externally owned storage
  /// (the system's columnar NodeTable): the lane and, for k beyond the
  /// lane's inline slots, `arrivals` (k slots). The engine — and its clock
  /// mirror — operate on that location from here on, so it never
  /// allocates a lane of its own. Must be called before the lane's first
  /// use (start(), a pulse, lane()); the storage must outlive the
  /// engine.
  void adopt_lane(ReceiveLane* lane, double* arrivals);

  /// Read-only view of the hot receive state (diagnostics/tests). A
  /// standalone engine allocates its lane here on first use.
  const ReceiveLane& lane() { return receive_lane(); }

  /// Crash-stop: cancels all pending timers and the passive loopback in
  /// flight and closes the collection window. After halt() the engine
  /// schedules nothing and ignores every pulse (counted as dropped by the
  /// dispatch layers); the logical clock stays readable.
  void halt();

  /// FAULT-INJECTION HOOK (tests/experiments only): models a transient
  /// fault (bit flip, SEU) that corrupts the logical clock by `offset`.
  /// The protocol itself never jumps (eq. 2 is continuous); recovery
  /// happens through the ordinary correction path — the contraction the
  /// self-stabilizing variant of [8] builds on. Perturbations beyond the
  /// proper-execution margins are *not* guaranteed to recover (the full
  /// [8] stabilization machinery is out of scope).
  void inject_transient_fault(sim::Time now, double offset) {
    clock_.jump(now, clock_.read(now) + offset);
  }

  /// Typed timer fires (round pulse / phase-2 end / round end).
  void on_logical_timer(clocks::LogicalTimerSet::Key key) override;

  /// Typed simulator events: the passive replica's simulated loopback
  /// arrival (kPulse, payload.a = round it was emitted in).
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

 private:
  enum TimerKey : clocks::LogicalTimerSet::Key {
    kPulseTimer = 1,
    kPhaseTwoEndTimer = 2,
    kRoundEndTimer = 3,
  };

  bool active() const { return mode_ == ClusterSyncMode::kActive; }

  /// A standalone engine's own receive state (tests, the cluster-tree
  /// baseline, Byzantine strategies): allocated on first use.
  struct OwnedLane;

  /// The lane, allocating a standalone one on first use.
  ReceiveLane& receive_lane() {
    if (lane_ == nullptr) [[unlikely]] allocate_lane();
    return *lane_;
  }
  void allocate_lane();
  /// Fresh lane state (nothing heard, not listening) at `lane`.
  void init_lane(ReceiveLane& lane, double* arrivals);

  void begin_round(int r);
  void pulse_instant(sim::Time now);
  void end_phase_two(sim::Time now);
  double compute_correction();

  sim::Simulator& sim() const { return timers_.simulator(); }

  const ClusterSyncConfig& cfg_;
  clocks::LogicalClock clock_;
  clocks::LogicalTimerSet timers_;
  sim::Rng loopback_rng_;
  sim::SinkId self_ = sim::kInvalidSink;  ///< passive loopback events
  std::int32_t own_index_ = 0;
  std::int32_t round_ = 0;
  std::int32_t start_round_;
  ClusterSyncMode mode_;

  /// Hot receive state (listening flag, clock mirror, arrival slots): a
  /// NodeTable lane once adopted, else owned_lane_'s; null until either.
  ReceiveLane* lane_ = nullptr;
  std::unique_ptr<OwnedLane> owned_lane_;
  ClusterSyncHooks* hooks_ = nullptr;

  sim::EventId pending_loopback_{};  ///< passive simulated self-pulse

  std::uint64_t violations_ = 0;
  std::uint64_t starved_rounds_ = 0;
  double last_correction_ = 0.0;
};
// Five engines per node on a torus: the receive lane lives in the
// NodeTable, the constants in the shared config, the hooks behind one
// pointer.
static_assert(sizeof(ClusterSyncEngine) == 312);

/// Hooks of a standalone active member: broadcasts its cluster pulse at
/// each pulse instant, as FtGcsNode does for the nodes of a system. For
/// the cluster-tree baseline's root members, Byzantine strategies that
/// run Algorithm 1, and test rigs.
class PulseBroadcaster final : public ClusterSyncHooks {
 public:
  PulseBroadcaster(net::Network& network, int node)
      : network_(network), node_(node) {}

  void on_pulse_instant(int /*round*/, sim::Time /*now*/) override {
    net::Pulse pulse;
    pulse.sender = node_;
    pulse.kind = net::PulseKind::kClusterPulse;
    network_.broadcast(node_, pulse);
  }

 private:
  net::Network& network_;
  int node_;
};

/// Network sink of an engine that listens to one cluster: forwards that
/// cluster's kClusterPulse deliveries to on_member_pulse and drops all
/// other traffic. For hosts without FtGcsNode's columnar receive: the
/// cluster-tree baseline's root members and single-cluster test rigs.
class ClusterMemberSink final : public net::PulseSink {
 public:
  ClusterMemberSink(const net::AugmentedTopology& topo, int cluster,
                    ClusterSyncEngine& engine)
      : topo_(topo), cluster_(cluster), engine_(engine) {}

  void on_pulse(const net::Pulse& pulse, sim::Time now) override {
    if (pulse.kind != net::PulseKind::kClusterPulse) return;
    if (topo_.cluster_of(pulse.sender) != cluster_) return;
    engine_.on_member_pulse(topo_.index_in_cluster(pulse.sender), now);
  }

 private:
  const net::AugmentedTopology& topo_;
  int cluster_;
  ClusterSyncEngine& engine_;
};

}  // namespace ftgcs::core
