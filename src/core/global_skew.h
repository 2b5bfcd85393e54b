// Global-skew control (Appendix C, Lemmas C.1/C.2, Theorem C.3).
//
// Each node maintains a conservative estimate M_v of the maximum correct
// logical clock L^max:
//
//  * M_v(0) = 0 and M_v increases at rate h_v/(1+ρ) ≤ 1, so local growth
//    can never overtake L^max (whose rate is ≥ 1);
//  * whenever M_v reaches a multiple ℓ·(d−U), v broadcasts a level-ℓ pulse
//    (distinguishable from the ClusterSync pulses: PulseKind::kMaxLevel);
//  * when v has registered level-ℓ pulses from f+1 distinct members of one
//    adjacent cluster, it sets M_v ← max(M_v, (ℓ+1)·(d−U)) and sends out
//    the pulses it now newly covers — a fault-tolerant flooding that keeps
//    M_v within O(δ·D) of L^max (Lemma C.2).
//
// The catch-up rule (Theorem C.3) — go fast when L_v ≤ M_v − c·δ and no
// trigger fires — lives in InterclusterController; this class only
// maintains M_v.
//
// Inside a system the estimator writes its segment (m0, t0, rate) and its
// staleness floor through to a LevelMirror in the columnar NodeTable.
// That mirror is all a sender needs to prove, at send time, that a level
// pulse will arrive after the receiver has already emitted the next level
// (the proof and its rounding margin are in core/node_table.h); such a
// delivery is elided from the event queue. The proof rests on M_v's rate
// h_v/(1+ρ) staying ≥ 1/(1+ρ), i.e. on h_v ≥ 1, which FtGcsNode's rate
// sink enforces.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/quorum_window.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace ftgcs::core {

/// Write-through copy of one estimator's state for the columnar layer:
/// M_v(t) = m0 + rate·(t − t0), evaluated with MaxEstimator::read's exact
/// arithmetic, and the staleness floor (levels below it are dropped on
/// arrival). m0 is −∞ until the emission schedule starts (no emission is
/// due, so no delivery may be proven stale by timing). Floor sentinels:
/// INT32_MAX drops every level (no estimator, crashed), INT32_MIN marks a
/// sink with its own delivery semantics (a Byzantine node).
///
/// Claims: a level delivery elided because the node is certain to pass
/// its level before it arrives (core/node_table.h) records that promise —
/// its level and arrival, the earliest per level, in one of kClaims slots.
/// Every floor rise settles the claims it passes, and each must still lie
/// strictly ahead: the always-on check that the proof held. A claim that
/// arrives unsettled fails NodeTable::check_claims.
struct LevelMirror {
  static constexpr int kClaims = 2;
  static constexpr std::int32_t kNoClaim = INT32_MIN;

  double m0 = -std::numeric_limits<double>::infinity();
  double t0 = 0.0;
  double rate = 0.0;
  double claim_at[kClaims] = {0.0, 0.0};
  std::int32_t floor = INT32_MAX;
  std::int32_t claim_level[kClaims] = {kNoClaim, kNoClaim};

  /// Records that level `level` (≥ floor) must be below the floor strictly
  /// before `at`. False, recording nothing, when every slot holds another
  /// level.
  bool claim(std::int32_t level, double at) {
    for (int i = 0; i < kClaims; ++i) {
      if (claim_level[i] == level) {
        if (at < claim_at[i]) claim_at[i] = at;
        return true;
      }
    }
    for (int i = 0; i < kClaims; ++i) {
      if (claim_level[i] == kNoClaim) {
        claim_level[i] = level;
        claim_at[i] = at;
        return true;
      }
    }
    return false;
  }

  /// Raises the floor to `value` at time `now`, settling the claims it
  /// passes: each must arrive strictly after `now`.
  void set_floor(std::int32_t value, double now) {
    for (int i = 0; i < kClaims; ++i) {
      if (claim_level[i] != kNoClaim && claim_level[i] < value) {
        FTGCS_ASSERT(claim_at[i] > now);  // an elided level arrived live
        claim_level[i] = kNoClaim;
      }
    }
    floor = value;
  }
};
static_assert(sizeof(LevelMirror) == 56);

class MaxEstimator final : public sim::EventSink {
 public:
  struct Config {
    double d = 0.0;    ///< max delay; level spacing is d − U
    double U = 0.0;    ///< delay uncertainty; requires U < d
    double rho = 0.0;  ///< drift bound (M grows at h/(1+ρ))
    int f = 0;         ///< per-cluster fault budget (quorum size f+1)
  };

  /// `cfg` is borrowed (one per system) and must outlive the estimator.
  MaxEstimator(sim::Simulator& simulator, const Config& cfg,
               double initial_hardware_rate);

  /// Begins the level-pulse schedule. Requires on_emit to be set.
  void start();

  /// M_v(now).
  double read(sim::Time now) const;

  /// Forwards the node's hardware-rate change (M rate is h/(1+ρ)).
  void set_hardware_rate(sim::Time now, double rate);

  /// Handles a received level pulse from member `member_index` of
  /// `cluster`. Own loopback pulses must be filtered by the caller
  /// (`from_self`): a node's own pulse carries no new information.
  void on_level_pulse(int cluster, int member_index, bool from_self,
                      int level, sim::Time now);

  /// True if a level pulse carries no news (level below the flooding
  /// floor). Callers may use this to skip work before routing; the same
  /// filter is applied inside on_level_pulse.
  bool is_stale_level(int level) const { return level < next_level_ - 1; }

  /// Folds the node's own logical clock value into M_v: L_v is always a
  /// lower bound on L^max, and the flooding argument of Lemma C.2 relies
  /// on M_w(t) ≥ L_w(t). Called by the owner at round starts.
  void observe_own_clock(double logical, sim::Time now);

  /// Emission hook: the owner broadcasts a kMaxLevel pulse with `level`.
  std::function<void(int level)> on_emit;

  /// Crash-stop: cancels the pending emission timer and pins the estimator
  /// silent — no further emissions are ever scheduled (rate changes
  /// included). read() stays valid.
  void halt();

  /// Binds the write-through LevelMirror (segment plus the staleness floor
  /// is_stale_level compares against: next-level − 1) and publishes it
  /// immediately. The columnar dispatch layer uses it to classify — and
  /// drop — stale level pulses without touching this object, and senders
  /// use it to prove a delivery stale before it is sent. After halt() the
  /// mirror is no longer written: the crash marks it instead.
  void bind_mirror(LevelMirror* mirror) {
    mirror_ = mirror;
    publish(sim_.now());
  }

  /// Adopts the node's quorum windows from the system's columnar table
  /// (see core/quorum_window.h): `windows[0..count)` is a flat span, one
  /// pre-labelled window per cluster that can physically reach this node.
  /// Must be bound before any level pulse is processed. Without a table
  /// (standalone estimators in unit tests) the private fallback vector is
  /// used — same records, same insert, bit-identical counts.
  void bind_quorum(QuorumWindow* windows, int count) {
    FTGCS_EXPECTS(windows != nullptr && count >= 0);
    FTGCS_EXPECTS(heard_.empty());  // bind before traffic
    quorum_ = windows;
    quorum_count_ = count;
  }

  std::uint64_t jumps() const { return jumps_; }
  int highest_level_sent() const { return next_level_ - 1; }

  /// EventSink: the pending level-emission timer (kTimer).
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

 private:
  void advance(sim::Time now);
  void schedule_next_emission(sim::Time now);
  void emit_through(double value);
  /// Writes the segment and the floor through to the bound mirror.
  void publish(sim::Time now) {
    if (mirror_ == nullptr || halted_) return;
    mirror_->m0 = started_ ? m0_ : -std::numeric_limits<double>::infinity();
    mirror_->t0 = t0_;
    mirror_->rate = rate_;
    mirror_->set_floor(next_level_ - 1, now);
  }

  sim::Simulator& sim_;
  const Config& cfg_;
  sim::SinkId self_ = sim::kInvalidSink;
  double spacing_;  ///< d − U

  sim::Time t0_ = 0.0;
  double m0_ = 0.0;
  double rate_;

  int next_level_ = 1;  ///< next level to emit
  LevelMirror* mirror_ = nullptr;  ///< write-through (see bind_mirror)
  sim::EventId pending_emit_{};
  bool halted_ = false;

  /// Distinct member indices heard per (cluster, level): one QuorumWindow
  /// per sending cluster (linear scan — degrees are small). The record
  /// layout and the insert primitive live in core/quorum_window.h, shared
  /// with NodeTable: inside a system the windows are a span of the table's
  /// flat columnar bank (quorum_ / quorum_count_, pre-labelled with every
  /// cluster that can physically reach the node); standalone estimators
  /// fall back to the private heard_ vector (lazily grown, as before).
  /// A window for a cluster outside the adopted span — reachable only via
  /// a forged sender id — falls back to heard_ as well.
  QuorumWindow& heard_window(int cluster);

  QuorumWindow* quorum_ = nullptr;  ///< adopted span (see bind_quorum)
  int quorum_count_ = 0;
  std::vector<QuorumWindow> heard_;  ///< fallback: standalone / forged ids
  std::uint64_t jumps_ = 0;
  bool started_ = false;
};

}  // namespace ftgcs::core
