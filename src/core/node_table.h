// Columnar hot-path state of every node in one FT-GCS system.
//
// The 40k-node profile after the ladder-queue engine is dominated by the
// protocol receive path itself: Network → virtual PulseSink::on_pulse →
// FtGcsNode topology lookups → EstimateBank scan → scattered
// ClusterSyncEngine/LogicalClock objects. The per-node state that path
// actually needs is a few words (TRIX-style: cluster id, member index,
// crashed flag, a (l0, t0, rate) clock segment, the current γ, and the
// arrival slots of each observed cluster), so NodeTable stores it as
// parallel arrays indexed by node id and lane:
//
//   * per node id — cluster, index-in-cluster, crashed/fast flags, γ, the
//     App. C estimator mirror (segment + kMaxLevel staleness floor), and
//     the node's lane range;
//   * per lane (one per engine: the own ClusterSync engine first, then one
//     passive replica per adjacent cluster, in estimates order) — a
//     ReceiveLane whose arrival slots live in one flat bank.
//
// The engines relocate their hot state INTO the table (adopt_lane) and
// keep the cold path — construction, timers, round transitions, fault
// injection, dynamic edges — so a pulse receive through the table and one
// through FtGcsNode::on_pulse execute the same lane_receive on the same
// words: the two paths are bit-identical by construction.
//
// NodeTable is also the sim-layer batch predicate: it classifies a pulse
// delivery as a pure receive (batchable kClusterPulse, or a droppable
// stale/self kMaxLevel) from these arrays alone, which is what lets the
// simulator drain delivery runs without consulting the receivers.
//
// Dead level deliveries (mark_dead_levels). A level-ℓ delivery to a
// correct w is a pure drop on arrival iff w has by then emitted ℓ+1 (its
// floor next_level − 1 exceeds ℓ) or it is w's own loopback. The sender
// can prove that at send time, from w's mirror alone, when
//
//   M_w(now) + delay / (1+ρ) > (ℓ+1)(d−U) + margin.              (★)
//
// Proof: M_w only grows — at rate h_w/(1+ρ) between re-bases, by jumps at
// quorums and round starts — and h_w ≥ 1 (the rate sink enforces it), so
// M_w(now + delay) ≥ M_w(now) + delay/(1+ρ) > (ℓ+1)(d−U): w's emission
// timer for ℓ+1 fires strictly before the arrival, and a quorum or a round
// start can only make it earlier. Crashing in between saturates the floor,
// which drops the delivery too. The inequality must be strict: an
// emission timer tied with the arrival may fire after it on seq.
//
// The margin absorbs floating-point rounding, in units of the run's
// magnitude s = 1 + (ℓ+1)(d−U) + now + delay (every time and M value
// involved is below s; u = 2⁻⁵³ the unit roundoff):
//   * (★)'s own left side: 5 roundings, ≤ 5u·s; 1/(1+ρ) is computed as
//     MaxEstimator computes h/(1+ρ) at h = 1, so rounding is monotone
//     and the factor stays a lower bound of every rate the estimator holds;
//   * the emission timer's now + (target − current)/rate: ≤ 5u·s in value
//     per arming, and a timer whose fire-time read rounds just below the
//     target re-arms once more by the same few ulps;
//   * the arrival time now + delay: u·s;
//   * each re-base of w's segment (advance(): a rate change, a round
//     start, a completed level quorum) rounds m0 once more: ≤ 3u·s each.
// margin = 2⁻⁴⁰·s = 8192 u·s covers the fixed terms plus ~2,700 re-bases
// of one node inside one delay window. A window holds at most a few per
// neighbour (quorums complete once per level and sender cluster; rounds
// and drift steps are far apart), and the claims below catch any
// shortfall. The margin must stay small against U: s grows with the
// clock (1.5·10⁷ after the paper-strict case's 12 rounds, where
// 2⁻⁴⁰·s is 1.4% of U = 10⁻³; 2⁻³⁰·s would exceed U there and prove
// almost nothing).
// Every delivery proven this way leaves a claim on the destination's
// mirror (see LevelMirror): each floor rise settles the claims it passes
// and asserts they still lie strictly ahead, and check_claims asserts at
// every run_until boundary that no claim arrived unsettled. Both checks
// are always on. Loopbacks and levels already below the floor need none:
// the floor never falls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/global_skew.h"
#include "core/quorum_window.h"
#include "core/receive_lane.h"
#include "net/network.h"
#include "sim/event.h"
#include "sim/scratch_arena.h"
#include "sim/time_types.h"

namespace ftgcs::net {
class AugmentedTopology;
}

namespace ftgcs::core {

class FtGcsNode;

/// Columnar ground-truth state: one array per field, indexed by node id.
/// Refilling reuses capacity, so periodic probes allocate nothing after the
/// first sample — the metrics layer reads these arrays directly.
struct SystemColumns {
  sim::Time at = 0.0;
  std::vector<double> logical;        ///< L_v(at); 0 for faulty ids
  std::vector<std::uint8_t> correct;  ///< 1 = correct and not crashed
  std::vector<std::int32_t> gamma;    ///< γ_v; 0 for faulty ids

  int num_nodes() const { return static_cast<int>(logical.size()); }
};

class NodeTable final : public net::ClusterPulseTable {
 public:
  NodeTable() = default;
  NodeTable(const NodeTable&) = delete;
  NodeTable& operator=(const NodeTable&) = delete;

  /// Builds the arrays over `topo` and adopts the receive lanes of every
  /// correct node (`nodes[id]` null for faulty ids). on_pulse_run decodes
  /// into `scratch`, the simulator-owned arena (see sim/scratch_arena.h),
  /// which must outlive the table. Called once by FtGcsSystem after node
  /// construction, before start().
  void build(const net::AugmentedTopology& topo,
             const std::vector<std::unique_ptr<FtGcsNode>>& nodes,
             sim::BatchScratch& scratch);

  /// net::ClusterPulseTable — the batched pulse receive: kClusterPulse
  /// events route to a lane, stale/self kMaxLevel events drop in place.
  void on_pulse_run(const sim::BatchedEvent* events, std::size_t n) override;

  /// Sets the App. C constants the send-time proof needs (level spacing
  /// d − U, minimum M rate 1/(1+ρ)). Without it only loopbacks and
  /// levels already below the floor are marked dead.
  void set_level_model(double d, double U, double rho) {
    spacing_ = d - U;
    min_rate_ = 1.0 / (1.0 + rho);
  }

  /// net::ClusterPulseTable — marks the dead deliveries of one level
  /// broadcast (see the proof above): the loopback, destinations already
  /// past the level, and destinations that satisfy (★) and take the
  /// claim. Never a floor-INT32_MIN (Byzantine) destination.
  std::size_t mark_dead_levels(int sender, int level, sim::Time now,
                               const sim::Duration* delays, std::size_t count,
                               const std::int32_t* rest_dests,
                               std::uint8_t* dead) override;

  /// sim::BatchPredicate (ctx = the NodeTable): pure-receive
  /// classification of one pulse payload. kClusterPulse to a MANAGED
  /// destination is a table receive (on_pulse_run itself drops the
  /// crashed ones — same observable outcome as the null sink); a
  /// kMaxLevel that is self-addressed or below the destination's
  /// staleness floor is a pure drop. Everything else (Byzantine sinks,
  /// non-stale levels) takes the ordinary per-event path.
  static bool pure_pulse(const sim::EventPayload& payload, const void* ctx);

  /// Always-on check at a run_until boundary `now`: aborts if a claim of
  /// mark_dead_levels has arrived (at ≤ now) while its level was still at
  /// or above the destination's floor.
  void check_claims(sim::Time now) const;

  /// Crash-stop at `now`: marks `node` crashed — the fast flag drops to 0
  /// (its deliveries fall through to the per-node sink, by then the null
  /// sink) and the level floor saturates (level pulses to it batch-drop).
  void mark_crashed(int node, sim::Time now);
  bool crashed(int node) const {
    return crashed_[static_cast<std::size_t>(node)] != 0;
  }

  /// Per-dest batchable flags for Network::set_cluster_dispatch.
  const std::uint8_t* fast_flags() const { return fast_.data(); }

  /// Write-through estimator mirror of `node` (bound to its MaxEstimator;
  /// the floor stays INT32_MAX — drop everything — without one).
  LevelMirror* level_mirror(int node) {
    return &level_[static_cast<std::size_t>(node)];
  }

  /// Mirror of γ_v (written by the node at each round-start decision).
  void set_gamma(int node, int gamma) {
    gamma_[static_cast<std::size_t>(node)] = gamma;
  }

  /// Ground-truth snapshot straight from the arrays: logical clocks from
  /// the lane mirrors (the exact LogicalClock::read arithmetic), γ from
  /// the mirror column, correctness from the managed/crashed flags.
  void snapshot_columns(sim::Time at, SystemColumns& out) const;

  /// Lane span of a managed node: lanes(node)[0] is the own engine,
  /// followed by one replica lane per adjacent cluster in estimates order.
  const ReceiveLane* lanes(int node) const {
    return lanes_.data() + lane_offset_[static_cast<std::size_t>(node)];
  }
  int lane_count(int node) const {
    return lane_offset_[static_cast<std::size_t>(node) + 1] -
           lane_offset_[static_cast<std::size_t>(node)];
  }

  /// kMaxLevel quorum windows of a managed node (MaxEstimator adoption,
  /// see core/quorum_window.h): one pre-labelled window per cluster that
  /// can physically reach the node — its own cluster first, then the
  /// adjacent clusters in estimates order. Parallel to the lane span
  /// (same offsets, same cluster labels), so a shard slice carries the
  /// quorum state in the same flat walk as the receive lanes.
  QuorumWindow* quorum_span(int node) {
    return quorum_windows_.data() +
           lane_offset_[static_cast<std::size_t>(node)];
  }
  int quorum_count(int node) const { return lane_count(node); }

  /// Pins the warmed-up quorum-window capacities: the sliding dense span
  /// (quorum_insert erases at the base and resizes at the tip) drifts by
  /// a stride or two between rounds, so a window that has just slid can
  /// regrow past its old high-water — and a window whose cluster pair
  /// simply had not been heard yet during warmup pays its first-touch
  /// allocation later. ×2 of the warmed capacity with a 16-stride floor
  /// covers both, making steady-state inserts allocation-free
  /// (tests/test_alloc_guard.cpp); Byzantine far-future levels still go
  /// to the sparse overflow list and are exempt from the contract.
  void prewarm() {
    for (QuorumWindow& w : quorum_windows_) {
      w.bits.reserve(std::max(2 * w.bits.capacity(), 16 * w.words));
    }
  }

  int num_nodes() const { return static_cast<int>(cluster_.size()); }

 private:
  int k_ = 0;
  // ---- per node id ----------------------------------------------------------
  std::vector<std::int32_t> cluster_;
  std::vector<std::int32_t> index_in_cluster_;
  std::vector<std::uint8_t> managed_;  ///< has adopted lanes (correct node)
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> fast_;     ///< managed && !crashed
  std::vector<LevelMirror> level_;  ///< App. C estimator mirrors
  std::vector<std::int32_t> gamma_;
  std::vector<std::int32_t> lane_offset_;  ///< size num_nodes + 1
  // ---- per lane -------------------------------------------------------------
  std::vector<std::int32_t> lane_cluster_;  ///< observed cluster
  std::vector<ReceiveLane> lanes_;
  std::vector<double> arrivals_bank_;  ///< k slots per lane (NaN = unheard)
  /// kMaxLevel quorum windows, parallel to lanes_ (indexed by the same
  /// lane_offset_ spans; window i counts pulses from lane_cluster_[i]).
  std::vector<QuorumWindow> quorum_windows_;
  sim::BatchScratch* scratch_ = nullptr;  ///< borrowed (see build)
  double spacing_ = 0.0;   ///< d − U (set_level_model; 0 = unset)
  double min_rate_ = 0.0;  ///< 1/(1+ρ)
  bool claimed_ = false;   ///< mark_dead_levels has recorded a claim
};

}  // namespace ftgcs::core
