#include "obs/pulse_diameters.h"

#include <algorithm>
#include <map>

#include "support/assert.h"

namespace ftgcs::obs {

PulseDiameters::PulseDiameters(std::vector<int> members)
    : members_(std::move(members)), rounds_(members_.size()) {}

void PulseDiameters::record(int cluster, int round, sim::Time at) {
  FTGCS_EXPECTS(round >= 1);
  auto& rounds = rounds_[static_cast<std::size_t>(cluster)];
  const auto index = static_cast<std::size_t>(round - 1);
  if (index >= rounds.size()) rounds.resize(index + 1);
  Round& agg = rounds[index];
  if (agg.count == 0) {
    agg.min = agg.max = at;
  } else {
    agg.min = std::min(agg.min, at);
    agg.max = std::max(agg.max, at);
  }
  ++agg.count;
}

std::vector<std::pair<int, double>> PulseDiameters::complete_rounds() const {
  std::map<int, double> worst;
  for (std::size_t c = 0; c < rounds_.size(); ++c) {
    for (std::size_t i = 0; i < rounds_[c].size(); ++i) {
      const Round& agg = rounds_[c][i];
      if (agg.count != members_[c]) continue;
      const double diameter = agg.max - agg.min;
      auto [it, inserted] = worst.emplace(static_cast<int>(i) + 1, diameter);
      if (!inserted) it->second = std::max(it->second, diameter);
    }
  }
  return {worst.begin(), worst.end()};
}

}  // namespace ftgcs::obs
