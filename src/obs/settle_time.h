// The time a sampled quantity settles into a band: the first sample from
// which every later sample stays at or below the threshold (E11: a new
// edge's skew stabilizes within O(S/µ), App. A). O(1) state.
#pragma once

#include <optional>

#include "sim/time_types.h"

namespace ftgcs::obs {

class SettleTime {
 public:
  explicit SettleTime(double threshold) : threshold_(threshold) {}

  void add(sim::Time at, double value) {
    if (value > threshold_) {
      settled_.reset();
    } else if (!settled_) {
      settled_ = at;
    }
  }

  /// First sample time from which the series stayed at or below the
  /// threshold through the last sample; nullopt if the last sample was
  /// above it (or there was none).
  std::optional<sim::Time> settled_at() const { return settled_; }

 private:
  double threshold_;
  std::optional<sim::Time> settled_;
};

}  // namespace ftgcs::obs
