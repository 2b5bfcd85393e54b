// Shared helpers for the experiment binaries (E1–E13).
//
// Each experiment regenerates one quantitative claim of the paper as a
// table: the header states the claim, the rows give paper-predicted vs
// measured values. EXPERIMENTS.md records the outcomes.
//
// The ramp helpers are thin shims over the exp/ engine: a ramp experiment
// is an exp::ResolvedRun (line topology + offset ramp + horizon), and its
// outcome is read back from the engine's standard metric schema. Ported
// experiments (E1, E4, E6, E9) skip this layer entirely and run registered
// scenarios; see exp/builtin_scenarios.cpp.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "byz/fault_plan.h"
#include "core/ftgcs_system.h"
#include "exp/run.h"
#include "metrics/skew_tracker.h"
#include "metrics/table.h"
#include "net/graph.h"

namespace ftgcs::bench {

inline void banner(const char* id, const char* claim) {
  std::printf("\n==========================================================\n");
  std::printf("%s — %s\n", id, claim);
  std::printf("==========================================================\n");
}

/// Builds a line system with a logical-offset ramp of `gap_rounds` rounds
/// per cluster (the distributed-skew absorption scenario).
inline core::FtGcsSystem::Config ramp_config(const core::Params& params,
                                             int clusters, int gap_rounds,
                                             std::uint64_t seed) {
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = seed;
  for (int c = 0; c < clusters; ++c) {
    config.cluster_round_offsets.push_back(c * gap_rounds);
  }
  return config;
}

struct RampOutcome {
  double max_local = 0.0;        ///< max adjacent-cluster skew seen
  double final_global = 0.0;     ///< remaining global skew at the horizon
  double initial_global = 0.0;
  std::uint64_t violations = 0;
};

/// Describes a ramp-absorption experiment on a line as an exp::ResolvedRun
/// (callers may tweak fields before handing it to exp::run_resolved).
inline exp::ResolvedRun ramp_run(const core::Params& params, int clusters,
                                 int gap_rounds, double rounds,
                                 std::uint64_t seed) {
  exp::ResolvedRun run;
  run.params = params;
  run.graph = net::Graph::line(clusters);
  run.diameter = run.graph.diameter();
  run.gap_rounds = gap_rounds;
  run.horizon_rounds = rounds;
  run.seed = seed;
  return run;
}

/// Runs a ramp-absorption experiment on a line for `rounds` rounds.
inline RampOutcome run_ramp(const core::Params& params, int clusters,
                            int gap_rounds, double rounds,
                            std::uint64_t seed,
                            byz::FaultPlan fault_plan = {}) {
  exp::ResolvedRun run = ramp_run(params, clusters, gap_rounds, rounds, seed);
  run.fault_plan = std::move(fault_plan);
  const exp::RunResult result = exp::run_resolved(run);

  RampOutcome outcome;
  outcome.max_local = result.metric("max_local");
  outcome.final_global = result.metric("final_global");
  outcome.initial_global = result.metric("S_init");
  outcome.violations =
      static_cast<std::uint64_t>(result.metric("violations"));
  return outcome;
}

}  // namespace ftgcs::bench
