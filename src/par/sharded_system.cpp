#include "par/sharded_system.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <limits>
#include <utility>

#include "exp/topology_graph.h"
#include "net/channel.h"
#include "obs/phase_profiler.h"
#include "support/assert.h"
#include "trace/collector.h"

namespace ftgcs::par {

namespace {

/// Largest representable time strictly below `t` — the bound of an
/// exclusive window: run_until(down(B)) drains exactly the events with
/// time < B, leaving time-B events (and the barrier's merged arrivals at
/// exactly B) for the next phase.
sim::Time down(sim::Time t) {
  return std::nextafter(t, -std::numeric_limits<sim::Time>::infinity());
}

}  // namespace

/// Source-side cut-edge receiver: stamps each diverted delivery with a
/// per-sender sequence (the T-invariant tie-break — a node's remote sends
/// to any fixed destination are the same set in the same order no matter
/// how the rest of the graph is sharded) and appends it to the
/// source→destination mailbox. Touched only by its own shard's thread.
class ShardedFtGcsSystem::Router final : public net::ShardRouter {
 public:
  Router(int shard, MailboxGrid* grid, const std::int32_t* node_owner,
         std::size_t num_nodes)
      : shard_(shard), grid_(grid), node_owner_(node_owner),
        seq_(num_nodes, 0) {}

  void remote_deliver(int from, sim::Time at,
                      const sim::EventPayload& payload) override {
    RemoteEvent event;
    event.at = at;
    event.payload = payload;
    event.from = from;
    event.seq = seq_[static_cast<std::size_t>(from)]++;
    grid_->push(shard_,
                node_owner_[static_cast<std::size_t>(payload.c)], event);
  }

 private:
  int shard_;
  MailboxGrid* grid_;
  const std::int32_t* node_owner_;
  std::vector<std::uint64_t> seq_;
};

/// The three lock-step barriers of one phase. Participants are the T
/// workers plus the driver. `start` publishes the driver's bound_ and the
/// previous window's mailbox appends to the merging workers; `merged`
/// separates the merge step from the run step — a worker may only start
/// pushing new mailbox entries once EVERY worker has finished draining
/// its inbox (without it, a fast shard's sends race a slow shard's
/// drain of the same box); `finish` returns control to the driver.
struct ShardedFtGcsSystem::Phases {
  explicit Phases(std::ptrdiff_t participants)
      : start(participants), merged(participants), finish(participants) {}
  std::barrier<> start;
  std::barrier<> merged;
  std::barrier<> finish;
};

ShardedFtGcsSystem::ShardedFtGcsSystem(net::Graph cluster_graph,
                                       Config config) {
  FTGCS_EXPECTS(config.shards >= 2);
  // Build (or borrow) the augmented topology ONCE. Every shard — and the
  // degenerate-plan census below — binds to this single instance, killing
  // the O(T·E) per-shard topology rebuild of the old construction.
  if (config.shared_topo != nullptr) {
    topo_ = config.shared_topo;
  } else {
    owned_topo_ = std::make_unique<net::AugmentedTopology>(cluster_graph,
                                                           config.params.k);
    topo_ = owned_topo_.get();
  }
  if (!config.plan.degenerate()) {
    plan_ = std::move(config.plan);
    FTGCS_EXPECTS(plan_.num_shards <= config.shards);
    FTGCS_EXPECTS(static_cast<int>(plan_.cluster_owner.size()) ==
                  cluster_graph.num_vertices());
  } else {
    const net::UniformDelay delays(config.params.d, config.params.U);
    plan_ = make_shard_plan(exp::build_topology_graph(*topo_, delays),
                            config.shards);
  }
  // A degenerate plan has no conservative window; the caller must probe
  // make_shard_plan() first and run the single-simulator engine instead.
  FTGCS_EXPECTS(!plan_.degenerate());
  window_ = plan_.cut_edges > 0 ? plan_.min_cut_delay - sim::kTimeEps : 0.0;

  const int t = plan_.num_shards;
  mailboxes_ = std::make_unique<MailboxGrid>(t);
  routers_.reserve(static_cast<std::size_t>(t));
  shards_.reserve(static_cast<std::size_t>(t));
  for (int s = 0; s < t; ++s) {
    routers_.push_back(std::make_unique<Router>(
        s, mailboxes_.get(), plan_.node_owner.data(),
        plan_.node_owner.size()));
    core::FtGcsSystem::Config shard_config;
    shard_config.params = config.params;
    shard_config.seed = config.seed;
    shard_config.enable_global_module = config.enable_global_module;
    shard_config.replicas_know_offsets = config.replicas_know_offsets;
    shard_config.fault_plan = config.fault_plan;
    shard_config.cluster_round_offsets = config.cluster_round_offsets;
    if (config.drift_factory) {
      shard_config.drift_model = config.drift_factory();
      FTGCS_EXPECTS(shard_config.drift_model != nullptr);
    }
    shard_config.shard = {s, t, plan_.cluster_owner.data(),
                          routers_.back().get()};
    shard_config.shared_topo = topo_;  // borrow, don't rebuild, per shard
    if (config.trace != nullptr) {
      // Serial, before the workers spawn — each buffer is then touched
      // only by its own shard's worker.
      shard_config.trace_sink = config.trace->shard_sink(s);
    }
    // With shared_topo set the shard ignores its graph argument — pass an
    // empty one instead of copying the real graph T times.
    shards_.push_back(std::make_unique<core::FtGcsSystem>(
        net::Graph(0), std::move(shard_config)));
  }

  // Owned node ids are contiguous per shard (clusters are striped and
  // node ids are cluster·k + index): record the range boundaries for the
  // snapshot merge.
  first_node_.assign(static_cast<std::size_t>(t) + 1, 0);
  for (std::size_t id = 0; id < plan_.node_owner.size(); ++id) {
    FTGCS_ASSERT(id == 0 ||
                 plan_.node_owner[id] >= plan_.node_owner[id - 1]);
    first_node_[static_cast<std::size_t>(plan_.node_owner[id]) + 1] =
        static_cast<std::int32_t>(id + 1);
  }
  for (int s = 1; s <= t; ++s) {
    first_node_[static_cast<std::size_t>(s)] =
        std::max(first_node_[static_cast<std::size_t>(s)],
                 first_node_[static_cast<std::size_t>(s) - 1]);
  }

  merge_scratch_.resize(static_cast<std::size_t>(t));
  mailbox_peak_.assign(static_cast<std::size_t>(t), 0);
  routed_in_.assign(static_cast<std::size_t>(t), 0);
  profiler_ = config.profiler;
  if (profiler_ != nullptr) profiler_->bind_shards(t);
  phases_ = std::make_unique<Phases>(t + 1);
  workers_.reserve(static_cast<std::size_t>(t));
  for (int s = 0; s < t; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ShardedFtGcsSystem::~ShardedFtGcsSystem() {
  stop_ = true;
  phases_->start.arrive_and_wait();
  for (std::thread& worker : workers_) worker.join();
}

void ShardedFtGcsSystem::start() {
  for (auto& shard : shards_) shard->start();
}

void ShardedFtGcsSystem::worker_loop(int shard) {
  core::FtGcsSystem& system = *shards_[static_cast<std::size_t>(shard)];
  const sim::SinkId net_sink = system.network().sink_id();
  std::vector<RemoteEvent>& scratch =
      merge_scratch_[static_cast<std::size_t>(shard)];
  // Profiler timing discipline: every slot WRITE a phase hook makes sits
  // between the start barrier and the finish barrier of the same window,
  // so the driver's post-finish reads (totals / finish / diag) are
  // ordered by the barriers — no extra synchronization. The kCollect
  // "phase" is the wait AT the start barrier: the time this shard spent
  // idle while slower shards and the driver's collect work held the next
  // window back, i.e. exactly the imbalance signal. (Its phase_end
  // writes total_ns[kCollect] right after the start barrier, still
  // before this window's finish barrier — same discipline.)
  obs::PhaseProfiler* const prof = profiler_;
  for (;;) {
    if (prof != nullptr) {
      prof->phase_begin(shard, obs::PhaseProfiler::Phase::kCollect);
    }
    phases_->start.arrive_and_wait();
    if (stop_) return;
    if (prof != nullptr) {
      prof->phase_end(shard, obs::PhaseProfiler::Phase::kCollect);
      prof->phase_begin(shard, obs::PhaseProfiler::Phase::kMerge);
    }
    // Seed the queue from the merged mailboxes first: every entry is a
    // cross-shard arrival from an earlier window, at a time ≥ the current
    // barrier — i.e. still in this shard's future.
    const std::size_t merged = mailboxes_->drain_inbound(shard, scratch);
    if (merged > 0) {
      mailbox_peak_[static_cast<std::size_t>(shard)] = std::max(
          mailbox_peak_[static_cast<std::size_t>(shard)], merged);
      routed_in_[static_cast<std::size_t>(shard)] += merged;
      for (const RemoteEvent& event : scratch) {
        system.simulator().post_fire_only_at(
            event.at, sim::EventKind::kPulse, net_sink, event.payload);
      }
    }
    if (prof != nullptr) {
      prof->phase_end(shard, obs::PhaseProfiler::Phase::kMerge);
    }
    phases_->merged.arrive_and_wait();  // no sends before every drain is done
    if (prof != nullptr) {
      prof->phase_begin(shard, obs::PhaseProfiler::Phase::kRun);
    }
    system.run_until(bound_);
    if (prof != nullptr) {
      prof->phase_end(shard, obs::PhaseProfiler::Phase::kRun);
      prof->count_window(shard);
    }
    phases_->finish.arrive_and_wait();
  }
}

void ShardedFtGcsSystem::phase(sim::Time bound) {
  bound_ = bound;
  phases_->start.arrive_and_wait();   // publish bound_, release workers
  phases_->merged.arrive_and_wait();
  phases_->finish.arrive_and_wait();  // collect; publishes mailbox writes
}

void ShardedFtGcsSystem::run_until(sim::Time t) {
  FTGCS_EXPECTS(t >= now_);
  if (profiler_ != nullptr) profiler_->span_begin("windows");
  // cut_edges == 0 means the stripes are mutually unreachable: no
  // conservative constraint, one window spans the whole target.
  const double width =
      window_ > 0.0 ? window_ : std::numeric_limits<double>::infinity();
  while (now_ < t) {
    const sim::Time w_end = std::min(now_ + width, t);
    FTGCS_ASSERT(w_end > now_);  // width below one ulp cannot make progress
    if (w_end < t) {
      // Interior window [now_, w_end): strictly-exclusive bound. Events at
      // exactly w_end (including merged arrivals at the boundary) belong
      // to the next window.
      phase(down(w_end));
    } else {
      // Final window: drain strictly below t, then a barrier (so arrivals
      // at exactly t are merged), then the inclusive time-t pass — the
      // same ≤ t semantics as Simulator::run_until(t).
      phase(down(t));
      phase(t);
    }
    now_ = w_end;
    ++windows_;
  }
  if (profiler_ != nullptr) profiler_->span_end("windows");
}

void ShardedFtGcsSystem::snapshot_columns(core::SystemColumns& out) const {
  shards_.front()->snapshot_columns(out);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    shards_[s]->snapshot_columns(snapshot_scratch_);
    const auto begin = static_cast<std::size_t>(first_node_[s]);
    const auto end = static_cast<std::size_t>(first_node_[s + 1]);
    for (std::size_t id = begin; id < end; ++id) {
      out.logical[id] = snapshot_scratch_.logical[id];
      out.correct[id] = snapshot_scratch_.correct[id];
      out.gamma[id] = snapshot_scratch_.gamma[id];
    }
  }
}

std::uint64_t ShardedFtGcsSystem::fired_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->simulator().fired_events();
  // Every shard installs an identically-seeded drift-model copy; at any
  // barrier they have fired the same tick schedule, so the duplicates are
  // exactly the copies' counts beyond the first.
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    total -= shards_[s]->drift_ticks_fired();
  }
  return total;
}

std::uint64_t ShardedFtGcsSystem::messages_sent() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->network().messages_sent();
  return total;
}

std::uint64_t ShardedFtGcsSystem::total_violations() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_violations();
  return total;
}

sim::EventQueue::TierStats ShardedFtGcsSystem::queue_stats() const {
  sim::EventQueue::TierStats stats;
  for (const auto& shard : shards_) {
    support::merge(stats, shard->simulator().queue_stats(),
                   support::Scope::kShards);
  }
  return stats;
}

void ShardedFtGcsSystem::shard_window_diag(
    std::vector<obs::ShardWindowDiag>& out) const {
  out.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out[s].routed = routed_in_[s];
    out[s].mailbox_peak = mailbox_peak_[s];
    out[s].fired = shards_[s]->simulator().fired_events();
  }
}

ShardedFtGcsSystem::ShardStats ShardedFtGcsSystem::shard_stats() const {
  ShardStats stats;
  stats.shards = plan_.num_shards;
  stats.cut_edges = plan_.cut_edges;
  stats.min_cut_delay = plan_.min_cut_delay;
  stats.windows = windows_;
  for (std::size_t peak : mailbox_peak_) {
    stats.mailbox_peak = std::max(stats.mailbox_peak, peak);
  }
  return stats;
}

}  // namespace ftgcs::par
