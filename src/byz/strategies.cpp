#include "byz/strategies.h"

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/cluster_sync.h"
#include "support/assert.h"

namespace ftgcs::byz {

ByzantineNode::ByzantineNode(AttackContext ctx,
                             std::unique_ptr<Strategy> strategy)
    : ctx_(std::move(ctx)), strategy_(std::move(strategy)) {
  FTGCS_EXPECTS(strategy_ != nullptr);
  FTGCS_EXPECTS(ctx_.sim != nullptr && ctx_.net != nullptr &&
                ctx_.topo != nullptr && ctx_.params != nullptr);
  ctx_.sink = ctx_.sim->register_sink(this);
}

void ByzantineNode::start() { strategy_->start(ctx_); }

void ByzantineNode::on_pulse(const net::Pulse& pulse, sim::Time now) {
  strategy_->on_pulse(ctx_, pulse, now);
}

void ByzantineNode::on_reference_round(const RoundInfo& info) {
  strategy_->on_reference_round(ctx_, info);
}

namespace {

net::Pulse cluster_pulse(int sender) {
  net::Pulse pulse;
  pulse.sender = sender;
  pulse.kind = net::PulseKind::kClusterPulse;
  return pulse;
}

/// What a strategy's kTimer event does when it fires at its host
/// (payload.d; c = receiver, x = channel delay).
enum class ByzAction : std::uint32_t {
  kUnicast,           ///< unicast a cluster pulse to c, channel-sampled delay
  kUnicastWithDelay,  ///< unicast a cluster pulse to c with delay x
  kTick,              ///< Strategy::on_tick
};

sim::EventPayload action(ByzAction what, int to = 0, double delay = 0.0) {
  sim::EventPayload payload;
  payload.c = to;
  payload.d = static_cast<std::uint32_t>(what);
  payload.x = delay;
  return payload;
}

/// Schedules a broadcast-like unicast to one receiver at absolute time
/// `send_at` (clamped to now). The channel delay is sampled when the send
/// fires, not here, so each edge's stream is drawn in send order.
void send_at(AttackContext& ctx, int to, sim::Time send_at) {
  const sim::Time at = std::max(send_at, ctx.sim->now());
  ctx.sim->post_at(at, sim::EventKind::kTimer, ctx.sink,
                   action(ByzAction::kUnicast, to));
}

}  // namespace

void ByzantineNode::on_event(sim::EventKind kind,
                             const sim::EventPayload& payload,
                             sim::Time /*now*/) {
  FTGCS_ASSERT(kind == sim::EventKind::kTimer);
  switch (static_cast<ByzAction>(payload.d)) {
    case ByzAction::kUnicast:
      ctx_.net->unicast(ctx_.self, payload.c, cluster_pulse(ctx_.self));
      return;
    case ByzAction::kUnicastWithDelay:
      ctx_.net->unicast_with_delay(ctx_.self, payload.c,
                                   cluster_pulse(ctx_.self), payload.x);
      return;
    case ByzAction::kTick:
      strategy_->on_tick(ctx_);
      return;
  }
  FTGCS_ASSERT(false && "unknown Byzantine action");
}

namespace {

class SilentStrategy final : public Strategy {};

class RandomPulserStrategy final : public Strategy {
 public:
  explicit RandomPulserStrategy(double rate) : rate_(rate) {
    FTGCS_EXPECTS(rate > 0.0);
  }

  void start(AttackContext& ctx) override { schedule_next(ctx); }

  void on_tick(AttackContext& ctx) override {
    ctx.net->broadcast(ctx.self, cluster_pulse(ctx.self));
    schedule_next(ctx);
  }

 private:
  void schedule_next(AttackContext& ctx) {
    const double gap = -std::log1p(-ctx.rng.next_double()) / rate_;
    ctx.sim->post_after(gap, sim::EventKind::kTimer, ctx.sink,
                        action(ByzAction::kTick));
  }

  double rate_;
};

class TwoFacedStrategy final : public Strategy {
 public:
  explicit TwoFacedStrategy(double spread) : spread_(spread) {
    FTGCS_EXPECTS(spread >= 0.0);
  }

  void on_reference_round(AttackContext& ctx, const RoundInfo& info) override {
    const auto& neighbors = ctx.net->neighbors(ctx.self);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const double offset = (i % 2 == 0) ? -spread_ / 2.0 : spread_ / 2.0;
      send_at(ctx, neighbors[i], info.predicted_pulse + offset);
    }
  }

 private:
  double spread_;
};

/// Runs Algorithm 1 honestly — but on an out-of-envelope hardware clock.
/// γ is pinned to 0: this node never obeys the GCS layer ("refuses to
/// adjust its logical clock rate", paper §1).
class ClockLiarStrategy final : public Strategy {
 public:
  explicit ClockLiarStrategy(double rate_factor) : factor_(rate_factor) {}

  void start(AttackContext& ctx) override {
    const core::Params& p = *ctx.params;
    sync_ = core::ClusterSyncConfig::from(p);
    const double rate = std::max(0.05, 1.0 + factor_ * p.rho);
    engine_ = std::make_unique<core::ClusterSyncEngine>(
        *ctx.sim, sync_, core::ClusterSyncMode::kActive, 1, rate,
        ctx.rng.fork(17));
    engine_->set_own_index(ctx.index_in_cluster);
    broadcaster_.emplace(*ctx.net, ctx.self);
    engine_->set_hooks(&*broadcaster_);
    engine_->start();
  }

  void on_pulse(AttackContext& ctx, const net::Pulse& pulse,
                sim::Time now) override {
    if (pulse.kind != net::PulseKind::kClusterPulse) return;
    if (ctx.topo->cluster_of(pulse.sender) != ctx.cluster) return;
    engine_->on_member_pulse(ctx.topo->index_in_cluster(pulse.sender), now);
  }

 private:
  double factor_;
  core::ClusterSyncConfig sync_;  ///< borrowed by engine_
  std::optional<core::PulseBroadcaster> broadcaster_;
  std::unique_ptr<core::ClusterSyncEngine> engine_;
};

class SkewPumpStrategy final : public Strategy {
 public:
  explicit SkewPumpStrategy(double offset) : offset_(offset) {
    FTGCS_EXPECTS(offset >= 0.0);
  }

  void on_reference_round(AttackContext& ctx, const RoundInfo& info) override {
    // Own cluster members (and self-image): plausible timing.
    for (int member : ctx.topo->members(ctx.cluster)) {
      if (member == ctx.self) continue;
      send_at(ctx, member, info.predicted_pulse);
    }
    // Neighbor clusters: early to lower ids, late to higher ids.
    for (int other : ctx.topo->cluster_neighbors(ctx.cluster)) {
      const double offset = other < ctx.cluster ? -offset_ : offset_;
      for (int member : ctx.topo->members(other)) {
        send_at(ctx, member, info.predicted_pulse + offset);
      }
    }
  }

 private:
  double offset_;
};

class EquivocatorStrategy final : public Strategy {
 public:
  explicit EquivocatorStrategy(double spread) : spread_(spread) {
    FTGCS_EXPECTS(spread >= 0.0);
  }

  void on_reference_round(AttackContext& ctx, const RoundInfo& info) override {
    for (int to : ctx.net->neighbors(ctx.self)) {
      const double offset = ctx.rng.uniform(-spread_ / 2.0, spread_ / 2.0);
      send_at(ctx, to, info.predicted_pulse + offset);
    }
  }

 private:
  double spread_;
};

class WindowEdgeStrategy final : public Strategy {
 public:
  explicit WindowEdgeStrategy(double amplitude) : amplitude_(amplitude) {
    FTGCS_EXPECTS(amplitude >= 0.0);
  }

  void on_reference_round(AttackContext& ctx, const RoundInfo& info) override {
    // Flip the targeted window edge every round: a steady bias would be
    // absorbed once; alternation keeps the induced correction oscillating.
    const double offset =
        (info.round % 2 == 0) ? amplitude_ : -amplitude_;
    for (int to : ctx.net->neighbors(ctx.self)) {
      send_at(ctx, to, info.predicted_pulse + offset);
    }
  }

 private:
  double amplitude_;
};

class DelayJitterStrategy final : public Strategy {
 public:
  void on_reference_round(AttackContext& ctx, const RoundInfo& info) override {
    const auto& neighbors = ctx.net->neighbors(ctx.self);
    const double d = ctx.params->d;
    const double u = ctx.params->U;
    const sim::Time at = std::max(info.predicted_pulse, ctx.sim->now());
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const sim::Duration delay = (i % 2 == 0) ? d - u : d;
      ctx.sim->post_at(at, sim::EventKind::kTimer, ctx.sink,
                       action(ByzAction::kUnicastWithDelay, neighbors[i],
                              delay));
    }
  }
};

}  // namespace

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kSilent:
      return "silent";
    case StrategyKind::kRandomPulser:
      return "random-pulser";
    case StrategyKind::kTwoFaced:
      return "two-faced";
    case StrategyKind::kClockLiar:
      return "clock-liar";
    case StrategyKind::kSkewPump:
      return "skew-pump";
    case StrategyKind::kEquivocator:
      return "equivocator";
    case StrategyKind::kWindowEdge:
      return "window-edge";
    case StrategyKind::kDelayJitter:
      return "delay-jitter";
  }
  return "?";
}

std::unique_ptr<Strategy> make_strategy(StrategyKind kind, double param) {
  switch (kind) {
    case StrategyKind::kSilent:
      return std::make_unique<SilentStrategy>();
    case StrategyKind::kRandomPulser:
      return std::make_unique<RandomPulserStrategy>(param);
    case StrategyKind::kTwoFaced:
      return std::make_unique<TwoFacedStrategy>(param);
    case StrategyKind::kClockLiar:
      return std::make_unique<ClockLiarStrategy>(param);
    case StrategyKind::kSkewPump:
      return std::make_unique<SkewPumpStrategy>(param);
    case StrategyKind::kEquivocator:
      return std::make_unique<EquivocatorStrategy>(param);
    case StrategyKind::kWindowEdge:
      return std::make_unique<WindowEdgeStrategy>(param);
    case StrategyKind::kDelayJitter:
      return std::make_unique<DelayJitterStrategy>();
  }
  FTGCS_ASSERT(false && "unknown strategy kind");
  return nullptr;
}

}  // namespace ftgcs::byz
