// Timers that fire at *logical* clock values.
//
// Algorithm 1 schedules its actions "at-time L_v(t_v(r)) + τ", i.e., at
// logical times. Since the logical clock's rate changes whenever δ, γ, or
// the hardware rate changes, the Newtonian fire time of a pending logical
// timer moves. LogicalTimerSet owns the pending timers of one logical clock
// and transparently reschedules them on every rate change (it installs
// itself as the clock's rate observer).
//
// Timers are keyed by a small integer so a protocol can name them
// (round-pulse, phase-2-end, round-end, ...) and replace/cancel by name.
// Pending timers live in a key-indexed inline array (keys 1..3 are dense
// by design) and fire as typed kTimer events whose payload is the key —
// the whole arm/fire/reschedule cycle allocates nothing. Every fire
// reaches the set's Client, which tells timers apart by key.
#pragma once

#include <array>
#include <cstdint>

#include "clocks/logical_clock.h"
#include "sim/simulator.h"

namespace ftgcs::clocks {

class LogicalTimerSet final : public sim::EventSink,
                              private RateObserver {
 public:
  using Key = std::uint32_t;

  /// Typed fire interface: `key` identifies which timer fired.
  class Client {
   public:
    virtual void on_logical_timer(Key key) = 0;

   protected:
    ~Client() = default;
  };

  /// Binds to a simulator and a clock. The set registers itself as the
  /// clock's rate observer (a private RateObserver base); the clock must
  /// outlive the set. `client` receives every fire and must outlive the
  /// set too.
  LogicalTimerSet(sim::Simulator& simulator, LogicalClock& clock,
                  Client& client);

  ~LogicalTimerSet();

  LogicalTimerSet(const LogicalTimerSet&) = delete;
  LogicalTimerSet& operator=(const LogicalTimerSet&) = delete;

  /// Arms (or replaces) timer `key` to fire when the logical clock reaches
  /// `logical_target`; the fire is delivered to the client. Runs exactly
  /// once, at the Newtonian time at which the (possibly rate-changing)
  /// clock first reaches the target. Requires logical_target >=
  /// clock.read(now).
  void arm(Key key, double logical_target);

  /// Cancels timer `key`; no-op if not armed. O(1).
  void cancel(Key key);

  /// Largest supported key + 1; keys run from 1. Keys are tiny dense
  /// protocol constants (round-pulse / phase-2-end / round-end); a fixed
  /// inline array keeps the whole timer family on the owning protocol
  /// object's cache lines — no per-set heap block on the
  /// 3M-fires-per-second path.
  static constexpr Key kMaxKeys = 4;

  /// True if timer `key` is armed.
  bool armed(Key key) const {
    return key >= 1 && key < kMaxKeys && slot(key).event;
  }

  std::size_t armed_count() const;

  /// The simulator the timers are scheduled on.
  sim::Simulator& simulator() const { return sim_; }

  /// EventSink: kTimer events carry the key in payload.a.
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

 private:
  /// 16 bytes; the null event id is the disarmed state, so a protocol's
  /// whole timer family (3 keys) fits in 48 bytes.
  struct Pending {
    double target = 0.0;
    sim::EventId event;  ///< null = disarmed
  };

  Pending& slot(Key key) { return pending_[key - 1]; }
  const Pending& slot(Key key) const { return pending_[key - 1]; }

  /// RateObserver: re-aims every armed timer at the clock's new rate.
  void on_rate_change(sim::Time now) override;
  sim::EventId schedule_one(Key key, double target);

  sim::Simulator& sim_;
  LogicalClock& clock_;
  Client& client_;
  sim::SinkId self_ = sim::kInvalidSink;
  std::array<Pending, kMaxKeys - 1> pending_{};  ///< key k at [k − 1]
};
static_assert(sizeof(LogicalTimerSet) == 96);

}  // namespace ftgcs::clocks
