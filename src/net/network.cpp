#include "net/network.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"
#include "trace/sink.h"

namespace ftgcs::net {

namespace {

class NullSink final : public PulseSink {
 public:
  void on_pulse(const Pulse&, sim::Time) override {}
};

// Shared by design: every silent baseline node's sink points here, and
// on_pulse is a no-op on a type with no data members.
// ftgcs-lint: allow(no-mutable-global) stateless singleton, safe to share
NullSink null_sink;

sim::EventPayload encode(const Pulse& pulse, int dest) {
  sim::EventPayload payload;
  payload.a = pulse.sender;
  payload.b = pulse.level;
  payload.c = dest;
  payload.d = static_cast<std::uint32_t>(pulse.kind);
  payload.x = pulse.value;
  return payload;
}

}  // namespace

Network::Network(sim::Simulator& simulator,
                 std::vector<std::vector<int>> adjacency,
                 std::unique_ptr<DelayModel> delays, sim::Rng rng)
    : sim_(simulator),
      adjacency_storage_(std::move(adjacency)),
      adj_(&adjacency_storage_),
      delays_(std::move(delays)),
      sinks_(adj_->size(), nullptr) {
  init_streams(std::move(rng));
}

Network::Network(sim::Simulator& simulator,
                 const std::vector<std::vector<int>>* adjacency,
                 std::unique_ptr<DelayModel> delays, sim::Rng rng)
    : sim_(simulator),
      adj_(adjacency),
      delays_(std::move(delays)),
      sinks_(adjacency == nullptr ? 0 : adj_->size(), nullptr) {
  FTGCS_EXPECTS(adjacency != nullptr);
  init_streams(std::move(rng));
}

void Network::init_streams(sim::Rng rng) {
  FTGCS_EXPECTS(delays_ != nullptr);
  uniform_channel_ = dynamic_cast<const UniformDelay*>(delays_.get()) != nullptr;
  self_ = sim_.register_sink(this);
  edge_streams_.reserve(adj_->size());
  loopback_streams_.reserve(adj_->size());
  std::uint64_t salt = 0;
  for (const auto& neighbors : *adj_) {
    std::vector<sim::Rng> streams;
    streams.reserve(neighbors.size());
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      // Validated once here so broadcast() can schedule deliveries
      // without a per-message bounds check (destinations come only from
      // this adjacency).
      FTGCS_EXPECTS(neighbors[j] >= 0 && neighbors[j] < num_nodes());
      streams.push_back(rng.fork(++salt));
    }
    edge_streams_.push_back(std::move(streams));
    loopback_streams_.push_back(rng.fork(++salt));
  }
}

void Network::register_handler(int node, PulseSink* sink) {
  FTGCS_EXPECTS(node >= 0 && node < num_nodes());
  FTGCS_EXPECTS(sink != nullptr);
  sinks_[node] = sink;
}

void Network::register_null_handler(int node) {
  register_handler(node, &null_sink);
}

void Network::set_cluster_dispatch(ClusterPulseTable* table,
                                   const std::uint8_t* managed) {
  FTGCS_EXPECTS(table != nullptr && managed != nullptr);
  dispatch_ = table;
  managed_ = managed;
}

void Network::set_shard_router(ShardRouter* router,
                               const std::uint8_t* remote) {
  FTGCS_EXPECTS(router != nullptr && remote != nullptr);
  router_ = router;
  remote_ = remote;
}

bool Network::enable_level_elision() {
  FTGCS_EXPECTS(dispatch_ != nullptr && trace_ == nullptr);
  elide_levels_ = sim_.enable_dead_ring(
      delays_->min_delay(), delays_->max_delay(), &Network::elided_fired, this);
  return elide_levels_;
}

void Network::elided_fired(std::size_t n, void* self) {
  auto* network = static_cast<Network*>(self);
  network->messages_delivered_ += n;
  network->delivered_by_kind_[static_cast<std::size_t>(
      PulseKind::kMaxLevel)] += n;
}

Network::DeliveryStats Network::delivery_stats() const {
  DeliveryStats stats;
  stats.cluster = delivered_by_kind_[static_cast<std::size_t>(
      PulseKind::kClusterPulse)];
  stats.level =
      delivered_by_kind_[static_cast<std::size_t>(PulseKind::kMaxLevel)];
  stats.share =
      delivered_by_kind_[static_cast<std::size_t>(PulseKind::kShare)];
  stats.propose =
      delivered_by_kind_[static_cast<std::size_t>(PulseKind::kPropose)];
  stats.elided = elided_;
  return stats;
}

const std::vector<int>& Network::neighbors(int node) const {
  FTGCS_EXPECTS(node >= 0 && node < num_nodes());
  return (*adj_)[static_cast<std::size_t>(node)];
}

bool Network::are_neighbors(int a, int b) const {
  const auto& nb = neighbors(a);
  return std::find(nb.begin(), nb.end(), b) != nb.end();
}

sim::Rng& Network::edge_rng(int from, int to) {
  if (from == to) return loopback_streams_[static_cast<std::size_t>(from)];
  const auto& nb = (*adj_)[static_cast<std::size_t>(from)];
  const auto it = std::find(nb.begin(), nb.end(), to);
  FTGCS_EXPECTS(it != nb.end());
  return edge_streams_[static_cast<std::size_t>(from)]
                      [static_cast<std::size_t>(it - nb.begin())];
}

void Network::deliver(int from, int to, const Pulse& pulse,
                      sim::Duration delay) {
  FTGCS_EXPECTS(delay >= delays_->min_delay() - sim::kTimeEps &&
                delay <= delays_->max_delay() + sim::kTimeEps);
  ++messages_sent_;
  const sim::EventPayload payload = encode(pulse, to);
  if (remote_ != nullptr && remote_[static_cast<std::size_t>(to)] != 0) {
    router_->remote_deliver(from, sim_.now() + delay, payload);
    return;
  }
  // Deliveries are never cancelled: fire-only, one group of one in the
  // queue (the Byzantine strategies' and the GCS baseline's sends).
  sim_.post_fire_only_after(delay, sim::EventKind::kPulse, self_, payload);
}

void Network::on_event(sim::EventKind kind, const sim::EventPayload& payload,
                       sim::Time now) {
  FTGCS_ASSERT(kind == sim::EventKind::kPulse);
  FTGCS_ASSERT(payload.d < delivered_by_kind_.size());
  ++messages_delivered_;
  ++delivered_by_kind_[payload.d];
  if (trace_ != nullptr) trace_->on_delivery(now, payload);
  if (dispatch_ != nullptr &&
      managed_[static_cast<std::size_t>(payload.c)] != 0) {
    dispatch_->on_delivery(payload, now);
    return;
  }
  Pulse pulse;
  pulse.sender = payload.a;
  pulse.level = payload.b;
  pulse.kind = static_cast<PulseKind>(payload.d);
  pulse.value = payload.x;
  PulseSink* sink = sinks_[static_cast<std::size_t>(payload.c)];
  FTGCS_ASSERT(sink != nullptr);
  sink->on_pulse(pulse, now);
}

void Network::on_event_batch(sim::EventKind kind,
                             const sim::BatchedEvent* events, std::size_t n) {
  FTGCS_ASSERT(kind == sim::EventKind::kPulse);
  FTGCS_ASSERT(dispatch_ != nullptr);
  messages_delivered_ += n;
  // Batch runs carry only kClusterPulse and kMaxLevel (the predicate).
  std::uint64_t levels = 0;
  for (std::size_t i = 0; i < n; ++i) {
    levels += events[i].payload.d ==
              static_cast<std::uint32_t>(PulseKind::kMaxLevel);
  }
  delivered_by_kind_[static_cast<std::size_t>(PulseKind::kMaxLevel)] +=
      levels;
  delivered_by_kind_[static_cast<std::size_t>(PulseKind::kClusterPulse)] +=
      n - levels;
  if (trace_ != nullptr) trace_->on_delivery_batch(events, n);
  dispatch_->on_pulse_run(events, n);
}

void Network::broadcast(int from, const Pulse& pulse) {
  FTGCS_EXPECTS(from >= 0 && from < num_nodes());
  FTGCS_EXPECTS(pulse.sender == from);
  const auto& neighbors = (*adj_)[static_cast<std::size_t>(from)];
  // One delivery group: loopback first, then neighbors in adjacency order
  // (streams are indexed by position — no per-edge find(); edge_rng(),
  // which searches, stays for the unicast paths only), so the draw order
  // each per-edge stream observes is unchanged. The payload is encoded
  // once; destinations come from the validated adjacency and delays from
  // the channel's own sampler, so the per-delivery bounds checks of the
  // unicast path are hoisted out of the loop.
  const std::size_t count = neighbors.size() + 1;
  messages_sent_ += count;
  sim::EventPayload payload = encode(pulse, from);
  auto& streams = edge_streams_[static_cast<std::size_t>(from)];
  // Coalesced fan-out: all delays are sampled first — the exact streams
  // and draw order of one delivery at a time — then the queue takes ONE
  // pre-encoded group, paying bucket lookup, window check, and the shared
  // payload write per fan-out instead of per delivery (16 B/delivery;
  // see EventQueue::schedule_fire_only_group). The destination list is
  // borrowed straight from the adjacency, which outlives every in-flight
  // delivery.
  if (group_delays_.size() < count) {
    group_delays_.resize(count);
    group_mask_.resize(count);
  }
  group_delays_[0] = sample_delay(
      from, from, loopback_streams_[static_cast<std::size_t>(from)]);
  for (std::size_t j = 0; j < neighbors.size(); ++j) {
    group_delays_[j + 1] = sample_delay(from, neighbors[j], streams[j]);
  }
  std::uint8_t* mask = group_mask_.data();
  std::size_t masked = 0;
  // Level fan-outs: with every delay drawn (the draw order above is
  // untouched), the table marks the deliveries that are dead on arrival
  // and the simulator keeps them out of the queue.
  if (elide_levels_ && pulse.kind == PulseKind::kMaxLevel) {
    masked = dispatch_->mark_dead_levels(from, pulse.level, sim_.now(),
                                         group_delays_.data(), count,
                                         neighbors.data(), mask);
    elided_ += masked;
  } else if (remote_ != nullptr) {
    std::fill_n(mask, count, std::uint8_t{0});
  }
  // Sharded runs: deliveries crossing the shard cut go to the router with
  // their arrival time, in adjacency order, and skip the local group; the
  // skipped entries keep their seqs, so the local remainder fires exactly
  // as the unsharded group's slice of the same destinations.
  if (remote_ != nullptr) {
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      if (remote_[static_cast<std::size_t>(neighbors[j])] == 0) continue;
      // The table never marks an unowned destination dead.
      FTGCS_ASSERT(mask[j + 1] == 0);
      mask[j + 1] = sim::Simulator::kSkippedDelivery;
      ++masked;
      payload.c = neighbors[j];
      router_->remote_deliver(from, sim_.now() + group_delays_[j + 1],
                              payload);
    }
    payload.c = from;
  }
  sim_.post_fire_only_group(group_delays_.data(), count,
                            sim::EventKind::kPulse, self_, payload, from,
                            neighbors.data(), masked != 0 ? mask : nullptr);
}

void Network::unicast(int from, int to, const Pulse& pulse) {
  FTGCS_EXPECTS(from >= 0 && from < num_nodes());
  FTGCS_EXPECTS(to >= 0 && to < num_nodes());
  FTGCS_EXPECTS(pulse.sender == from);
  FTGCS_EXPECTS(from == to || are_neighbors(from, to));
  deliver(from, to, pulse, sample_delay(from, to, edge_rng(from, to)));
}

void Network::unicast_with_delay(int from, int to, const Pulse& pulse,
                                 sim::Duration delay) {
  FTGCS_EXPECTS(from >= 0 && from < num_nodes());
  FTGCS_EXPECTS(to >= 0 && to < num_nodes());
  FTGCS_EXPECTS(pulse.sender == from);
  FTGCS_EXPECTS(from == to || are_neighbors(from, to));
  deliver(from, to, pulse, delay);
}

}  // namespace ftgcs::net
