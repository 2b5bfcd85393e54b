// Message dispatch over a fixed topology.
//
// Correct nodes broadcast: one send delivers an independent copy to every
// neighbor (and to the sender itself — the loopback used by Lynch–Welch
// style algorithms to timestamp their own pulse), each copy delayed by the
// channel's DelayModel within [d − U, d].
//
// Byzantine nodes are NOT required to broadcast (paper §2, "Faults"): they
// may unicast different pulses to different neighbors at arbitrary times,
// and may choose the delay within the legal interval (the physical channel
// still bounds transit time; a Byzantine node controls *when* it sends,
// which composes with delay choice to arbitrary arrival times — we expose
// arrival-time control directly for convenience of attack strategies).
//
// Delivery rides the typed event engine: the network registers one
// EventSink with the simulator, every in-flight message is one EventKind::
// kPulse event whose POD payload encodes (sender, kind, level, value, dest),
// and a broadcast is batched — all per-edge delays pre-sampled into one
// reused buffer, then the delivery group is scheduled back-to-back. No
// allocation per message, O(1) cancellation semantics inherited from the
// engine, and the per-stream RNG draw order is identical to sampling one
// edge at a time (each directed edge owns its stream).
//
// A level broadcast (App. C) is batched the same way, and then most of it
// never enters the queue: with elision on (enable_level_elision), the
// cluster-pulse table marks the deliveries it can prove will be dropped
// unread on arrival — the loopback, receivers already past the level, and
// receivers whose M_w is certain to pass the next level first (the proof
// and its rounding margin are in core/node_table.h). Such a delivery's
// only effect on arrival is to be counted, so it skips the queue: the
// simulator's DeadRing fires it once the clock has passed its arrival and
// hands the network the count, keeping the fired and delivered counts
// exact. Every broadcast takes the coalesced path; in a sharded run the
// deliveries that cross the shard cut go to the router and are skipped in
// the local group, whose local deliveries the table may still mark dead.
// A unicast keeps its ordinary post, and a traced run elides nothing,
// since its trace records every delivery.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "support/assert.h"
#include "support/stat_table.h"

namespace ftgcs::trace {
class TraceSink;
}

namespace ftgcs::net {

/// Message kinds. The paper's pulses are content-less; kinds let one
/// physical network carry the cluster-sync pulses, the global-skew module's
/// level pulses, and the timestamped shares used by the plain-GCS baseline.
enum class PulseKind : std::uint8_t {
  kClusterPulse,  ///< Algorithm 1 round pulse (content-less)
  kMaxLevel,      ///< Appendix C M_v threshold pulse; `level` is the payload
  kShare,         ///< baseline: logical-clock timestamp in `value`
  kPropose,       ///< baseline (Srikanth–Toueg): PROPOSE(round = `level`)
};

struct Pulse {
  int sender = -1;
  PulseKind kind = PulseKind::kClusterPulse;
  int level = 0;       ///< kMaxLevel payload
  double value = 0.0;  ///< kShare payload
};

/// Typed receive interface of one node that the cluster-pulse table does
/// not manage: Byzantine nodes, the comparison baselines' nodes and test
/// rigs implement this directly; the network dispatches deliveries through
/// a stable per-node pointer — no per-registration closure.
class PulseSink {
 public:
  virtual ~PulseSink() = default;
  virtual void on_pulse(const Pulse& pulse, sim::Time now) = 0;
};

/// The receive path of every correct FT-GCS node, implemented by the
/// system layer's columnar node table: the table consumes the encoded
/// payloads directly (kPulse schema: a = sender, c = dest). Two entries:
///   * on_pulse_run — a drained run of pure-receive pulse events
///     (kClusterPulse receives, stale kMaxLevel drops) in one call. The
///     receiver must treat every event as a pure receive (no scheduling,
///     no sends): that is what makes the batch drain order-safe (see
///     sim::Simulator::set_batch_channel);
///   * on_delivery — any other delivery to a managed destination (a
///     non-stale kMaxLevel, which may complete a quorum and send), one at
///     a time.
class ClusterPulseTable {
 public:
  virtual ~ClusterPulseTable() = default;
  virtual void on_pulse_run(const sim::BatchedEvent* events,
                            std::size_t n) = 0;
  virtual void on_delivery(const sim::EventPayload& payload,
                           sim::Time now) = 0;

  /// One call per level broadcast of `sender` at `now`: sets dead[i] = 1
  /// for each delivery i (dest `sender` for i = 0, rest_dests[i − 1]
  /// beyond; delay delays[i]) that is certain to be a pure drop when it
  /// arrives, 0 otherwise, and returns how many it marked.
  virtual std::size_t mark_dead_levels(int sender, int level, sim::Time now,
                                       const sim::Duration* delays,
                                       std::size_t count,
                                       const std::int32_t* rest_dests,
                                       std::uint8_t* dead) = 0;
};

/// Receiver of deliveries that leave the local shard of a sharded run.
/// The network samples the channel delay exactly as it would for a local
/// delivery (same per-directed-edge RNG stream, same draw order — the
/// draws are partition-invariant) and then hands the *arrival time* plus
/// the encoded kPulse payload to the router instead of its own simulator.
/// The router (par::ShardedFtGcsSystem) appends it to the source→dest
/// shard mailbox; the destination shard replays it at the safe-window
/// barrier via sim::Simulator::post_fire_only_at.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;
  /// `from` is the sender (routing/ordering key; payload.a == from),
  /// `at` the absolute arrival time, `payload` the encoded kPulse event
  /// (payload.c = destination node).
  virtual void remote_deliver(int from, sim::Time at,
                              const sim::EventPayload& payload) = 0;
};

class Network final : public sim::EventSink {
 public:
  /// `adjacency[v]` lists v's neighbors (no self-loops). The network adds
  /// loopback delivery on broadcast. One RNG stream per directed edge is
  /// forked from `rng`.
  Network(sim::Simulator& simulator, std::vector<std::vector<int>> adjacency,
          std::unique_ptr<DelayModel> delays, sim::Rng rng);

  /// Borrowed-adjacency overload: shares an immutable adjacency owned by
  /// the caller instead of copying it — one topology can feed every shard
  /// of a sharded run (and the single-run path) with zero duplication.
  /// `adjacency` must stay valid, unchanged, for the network's lifetime
  /// (broadcast delivery groups additionally borrow the neighbor lists
  /// until the last delivery fires; an outliving topology satisfies both).
  Network(sim::Simulator& simulator,
          const std::vector<std::vector<int>>* adjacency,
          std::unique_ptr<DelayModel> delays, sim::Rng rng);

  int num_nodes() const { return static_cast<int>(adj_->size()); }

  /// Installs the receive sink for `node`. Must be set before any message
  /// can be delivered to it, unless the cluster-pulse table manages it
  /// (then the sink is never called). The sink must outlive the network.
  void register_handler(int node, PulseSink* sink);

  /// Installs a sink that discards deliveries (silent faulty ids).
  void register_null_handler(int node);

  /// Installs the cluster-pulse table: every delivery whose destination
  /// has `managed[dest] != 0` goes to `table` (batched runs to
  /// on_pulse_run, the rest to on_delivery), never to a per-node sink.
  /// Both are owned by the caller and must outlive the network.
  void set_cluster_dispatch(ClusterPulseTable* table,
                            const std::uint8_t* managed);

  /// This network's typed-event sink id (for Simulator::set_batch_channel).
  sim::SinkId sink_id() const { return self_; }

  /// Turns on level elision (see the file comment): enables the
  /// simulator's DeadRing over this channel's delay window. Requires the
  /// cluster dispatch (its table proves the deliveries dead) and no trace
  /// tap. Returns false, eliding nothing, if the ring cannot cover the
  /// window.
  bool enable_level_elision();

  /// Sharded mode: deliveries whose destination has `remote[dest] != 0`
  /// are diverted to `router` (with their sampled arrival time) instead of
  /// being scheduled locally. Delay sampling is unchanged either way, so
  /// per-edge RNG draw order is identical to an unsharded run. Both
  /// pointers are owned by the caller and must outlive the network.
  void set_shard_router(ShardRouter* router, const std::uint8_t* remote);

  /// Observability tap: mirrors every FIRED delivery (single and batched)
  /// to `sink` before dispatch. nullptr disables; with no sink the whole
  /// feature costs one predictable branch per delivery (batches pay it
  /// once per run). The sink is owned by the caller and must outlive the
  /// network. Deliveries fire exactly once on the destination's owner
  /// shard even in sharded runs, which is what makes the captured stream
  /// partition-invariant (see trace/sink.h).
  void set_trace(trace::TraceSink* sink) {
    FTGCS_EXPECTS(!elide_levels_);  // elided deliveries leave no record
    trace_ = sink;
  }

  /// Correct-node broadcast: delivers to all neighbors and to self. The
  /// delivery group is pre-sampled as one batch.
  void broadcast(int from, const Pulse& pulse);

  /// Point-to-point send with channel-sampled delay. `to` must be a
  /// neighbor of `from` (or `from` itself). Links identify their sender
  /// (paper §2), so pulse.sender must be `from`.
  void unicast(int from, int to, const Pulse& pulse);

  /// Byzantine-only: point-to-point send with caller-chosen delay. The
  /// delay must still respect the physical channel: [d − U, d]; the
  /// sender is `from`, as for unicast.
  void unicast_with_delay(int from, int to, const Pulse& pulse,
                          sim::Duration delay);

  const std::vector<int>& neighbors(int node) const;
  bool are_neighbors(int a, int b) const;

  const DelayModel& delay_model() const { return *delays_; }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }

  /// Fired deliveries by PulseKind, plus the level deliveries that were
  /// elided from the queue. Shards of one run add up.
  struct DeliveryStats {
    std::uint64_t cluster = 0;  ///< kClusterPulse deliveries fired
    std::uint64_t level = 0;    ///< kMaxLevel deliveries fired
    std::uint64_t share = 0;    ///< kShare deliveries fired
    std::uint64_t propose = 0;  ///< kPropose deliveries fired
    /// Level deliveries sent past the queue (DeadRing). Engine plane: a
    /// delivery routed to another shard is never elided, so it moves with
    /// --shards.
    std::uint64_t elided = 0;

    std::uint64_t total() const { return cluster + level + share + propose; }
    /// Elided share of the fired deliveries.
    double elided_share() const {
      return total() > 0 ? static_cast<double>(elided) /
                               static_cast<double>(total())
                         : 0.0;
    }

    /// Field table (support/stat_table.h): the `--timing` footer's
    /// deliveries line and the `.profile` diag rows.
    static constexpr auto fields() {
      using enum support::Agg;
      using enum support::Plane;
      using S = DeliveryStats;
      return std::array{
          derived<&S::total>("total", kDeterministic, "deliveries"),
          field<&S::cluster>("cluster", kSum, kDeterministic, "deliveries"),
          field<&S::level>("level", kSum, kDeterministic, "deliveries"),
          field<&S::share>("share", kSum, kDeterministic, "deliveries"),
          field<&S::propose>("propose", kSum, kDeterministic, "deliveries"),
          field<&S::elided>("elided", kSum, kEngine, "deliveries"),
          derived<&S::elided_share>("elided_share", kEngine, "deliveries",
                                    "%.3f")};
    }
  };
  DeliveryStats delivery_stats() const;

  /// EventSink: one kPulse event per in-flight message.
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

  /// EventSink batch hook: a drained run of pure-receive pulse events —
  /// kClusterPulse deliveries to managed destinations interleaved with
  /// stale kMaxLevel deliveries — forwarded to the cluster-pulse table in
  /// one call.
  void on_event_batch(sim::EventKind kind, const sim::BatchedEvent* events,
                      std::size_t n) override;

 private:
  /// Bounds-checks and schedules one unicast delivery (or routes it off
  /// the shard).
  void deliver(int from, int to, const Pulse& pulse, sim::Duration delay);
  sim::Rng& edge_rng(int from, int to);
  void init_streams(sim::Rng rng);

  /// sim::Simulator::DeadFired: n elided level deliveries fired.
  static void elided_fired(std::size_t n, void* self);

  sim::Duration sample_delay(int from, int to, sim::Rng& rng) const {
    // Devirtualized fast path for the default uniform channel: same draw,
    // same stream, no indirect call per edge.
    if (uniform_channel_) {
      return rng.uniform(delays_->min_delay(), delays_->max_delay());
    }
    return delays_->sample(from, to, rng);
  }

  sim::Simulator& sim_;
  sim::SinkId self_ = sim::kInvalidSink;
  std::vector<std::vector<int>> adjacency_storage_;  ///< owned-adjacency mode
  const std::vector<std::vector<int>>* adj_ = nullptr;  ///< always valid
  std::unique_ptr<DelayModel> delays_;
  bool uniform_channel_ = false;
  std::vector<PulseSink*> sinks_;
  ClusterPulseTable* dispatch_ = nullptr;   ///< correct nodes' receive path
  const std::uint8_t* managed_ = nullptr;   ///< per-dest table-managed flags
  ShardRouter* router_ = nullptr;           ///< cut-edge diversion (optional)
  const std::uint8_t* remote_ = nullptr;    ///< per-dest off-shard flags
  trace::TraceSink* trace_ = nullptr;       ///< delivery tap (optional)
  // One stream per directed edge, keyed densely: edge_streams_[from] maps
  // position-in-adjacency-list -> Rng; loopback stream is separate.
  std::vector<std::vector<sim::Rng>> edge_streams_;
  std::vector<sim::Rng> loopback_streams_;
  /// Broadcast scratch: all of one fan-out's delays sampled here before the
  /// queue sees the group (loopback at [0], neighbor j at [j + 1]), and
  /// the group's mask (dead / routed off-shard deliveries), indexed alike.
  std::vector<sim::Duration> group_delays_;
  std::vector<std::uint8_t> group_mask_;
  bool elide_levels_ = false;  ///< see enable_level_elision
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  /// Fired deliveries indexed by PulseKind (payload.d).
  std::array<std::uint64_t, 4> delivered_by_kind_{};
  std::uint64_t elided_ = 0;
};

}  // namespace ftgcs::net
