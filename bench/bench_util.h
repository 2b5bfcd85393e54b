// Shared helpers for the experiment binaries not yet ported to registered
// scenarios (E3, E7, E10–E12).
//
// Each experiment regenerates one quantitative claim of the paper as a
// table: the header states the claim, the rows give paper-predicted vs
// measured values. EXPERIMENTS.md records the outcomes. E1, E2, E4, E5,
// E6, E8, E9 and E13 have no binary: they are registered scenarios (see
// exp/builtin_scenarios.cpp), run with `ftgcs_bench run <name>`.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "core/ftgcs_system.h"
#include "metrics/skew_tracker.h"
#include "metrics/table.h"
#include "net/graph.h"

namespace ftgcs::bench {

inline void banner(const char* id, const char* claim) {
  std::printf("\n==========================================================\n");
  std::printf("%s — %s\n", id, claim);
  std::printf("==========================================================\n");
}

}  // namespace ftgcs::bench
