// Named scenario registry.
//
// Scenarios register by value under their `name`; the CLI,
// benchmark/ftgcs_e2e.cpp and the tests all look experiments up here
// instead of hand-rolling setup code. register_builtin_scenarios() installs
// the paper-reproduction scenarios (every experiment E1-E13; there are no
// per-experiment binaries) and the large-grid workloads, and is
// idempotent.
#pragma once

#include <string>
#include <vector>

#include "exp/scenario.h"

namespace ftgcs::exp {

class Registry {
 public:
  static Registry& instance();

  /// Adds (or replaces, by name) a scenario. Empty names are rejected.
  void add(ScenarioSpec spec);

  /// Looks a scenario up by name; nullptr when absent.
  const ScenarioSpec* find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  std::size_t size() const { return scenarios_.size(); }

 private:
  Registry() = default;
  std::vector<ScenarioSpec> scenarios_;
};

/// Installs the built-in paper scenarios into Registry::instance().
/// Safe to call more than once.
void register_builtin_scenarios();

}  // namespace ftgcs::exp
