// Logical clock per paper eq. (2):
//
//   L_v(t) = ∫₀ᵗ (1 + ϕ·δ_v(τ)) · (1 + µ·γ_v(τ)) · h_v(τ) dτ
//
// δ_v ∈ R≥0 is the Lynch–Welch amortization control (ClusterSync phase 3),
// γ_v ∈ {0,1} is the GCS fast/slow mode, and h_v is the hardware rate. All
// three factors are piecewise constant, so L_v is piecewise linear and is
// integrated in closed form segment by segment.
//
// The clock notifies an optional observer when its overall rate changes;
// LogicalTimerSet uses this to reschedule pending logical-time timers.
#pragma once

#include "sim/time_types.h"

namespace ftgcs::clocks {

/// Write-through copy of a clock's piecewise-linear segment (L(t) = l0 +
/// rate·(t − t0)). A LogicalClock bound to a mirror republishes these three
/// words after every factor change, so an external reader — the columnar
/// node table's pulse-receive path — evaluates the clock with the exact
/// arithmetic of LogicalClock::read() without touching the clock object.
struct ClockMirror {
  double l0 = 0.0;
  sim::Time t0 = 0.0;
  double rate = 0.0;
};

/// Receiver of a clock's rate changes (see LogicalClock::set_rate_observer).
class RateObserver {
 public:
  /// The rate changed (or the value jumped) at `now`.
  virtual void on_rate_change(sim::Time now) = 0;

 protected:
  ~RateObserver() = default;  // never deleted through the interface
};

class LogicalClock {
 public:
  /// `phi` and `mu` are the constants of eq. (2); both fixed for the run.
  LogicalClock(double phi, double mu, double hardware_rate,
               sim::Time t0 = 0.0, double l0 = 0.0);

  /// L_v(now). Requires now >= time of last factor change.
  double read(sim::Time now) const;

  /// Current overall rate (1+ϕδ)(1+µγ)h.
  double rate() const { return rate_; }

  double delta() const { return delta_; }
  int gamma() const { return gamma_; }
  double hardware_rate() const { return hrate_; }
  double phi() const { return phi_; }
  double mu() const { return mu_; }

  /// Sets δ_v at time `now`. Requires delta >= 0.
  void set_delta(sim::Time now, double delta);

  /// Sets γ_v ∈ {0, 1} at time `now`.
  void set_gamma(sim::Time now, int gamma);

  /// Propagates a hardware-rate change at time `now`.
  void set_hardware_rate(sim::Time now, double hrate);

  /// Newtonian time at which the clock reaches `target`, assuming the
  /// current rate persists; `now` if the target was already reached.
  sim::Time when_reaches(double target, sim::Time now) const;

  /// Discontinuous step to `value` (may go backwards). Used ONLY by the
  /// baseline algorithms (classic master/slave steps its clock); the
  /// FT-GCS clocks are continuous by construction (eq. 2) and never jump.
  /// Notifies the rate observer so pending logical timers re-aim.
  void jump(sim::Time now, double value);

  /// Observer invoked after any rate change (with the change time);
  /// nullptr unbinds. Non-owning: the observer must outlive the binding.
  void set_rate_observer(RateObserver* observer) { observer_ = observer; }

  /// Binds (or unbinds, with nullptr) the write-through mirror and
  /// publishes the current segment immediately. The mirror must outlive
  /// the binding.
  void bind_mirror(ClockMirror* mirror) {
    mirror_ = mirror;
    publish();
  }

 private:
  void advance(sim::Time now);
  void recompute_rate(sim::Time now);
  void publish() {
    if (mirror_ != nullptr) {
      mirror_->l0 = l0_;
      mirror_->t0 = t0_;
      mirror_->rate = rate_;
    }
  }

  double phi_;
  double mu_;
  double delta_ = 1.0;  // Algorithm 1 line 3: δ_v ← 1 outside phase 3
  int gamma_ = 0;
  double hrate_;

  sim::Time t0_;
  double l0_;
  double rate_;

  ClockMirror* mirror_ = nullptr;
  RateObserver* observer_ = nullptr;
};

}  // namespace ftgcs::clocks
