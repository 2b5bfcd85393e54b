// ftgcs_bench — unified experiment CLI over the exp/ engine.
//
//   ftgcs_bench list                      show registered scenarios
//   ftgcs_bench run <scenario> [opts]     run a scenario's registered grid
//   ftgcs_bench sweep <scenario> [opts]   run with grid/seed overrides
//
// Options (run/sweep):
//   --threads N         worker threads (default: hardware concurrency)
//   --sink KIND         table | csv | jsonl        (default: table)
//   --seeds a,b,c       override the seed list
//   --axis name=v1,v2   override or append a sweep axis (repeatable;
//                       the strategy axis also accepts strategy names)
//   --worst             aggregate rows as worst-over-seeds
//   --per-seed          one row per (point, seed)
//   --timing            append wall_ms / events_per_sec columns (wall-clock
//                       measurements; off by default so output stays
//                       machine-independent) and the diagnostics footer:
//                       queue / runs / bytes / shards / monitors / trace /
//                       metrics / phases lines (README, "The `--timing`
//                       footer", lists every stat and its plane)
//   --shards T          conservative-parallel backend: stripe each run's
//                       cluster graph over T worker threads advancing in
//                       lock-step safe windows (default 1 = single
//                       simulator; tables are bit-identical at any T, so
//                       this is a pure throughput toggle; the `--timing`
//                       footer reports the cut geometry)
//   --trace PATH        stream every fired pulse delivery to a binary .ftr
//                       trace (multi-task sweeps write PATH.taskN). The
//                       bytes are identical at every --shards choice;
//                       inspect with `ftgcs_trace`
//   --metrics PATH      write the deterministic per-probe metrics series
//                       (JSONL: skew max/p99/p50, envelope margins,
//                       violations) to PATH — byte-identical at every
//                       --shards choice — plus the PATH.profile sidecar
//                       (wall-clock shard phases + shard-dependent queue
//                       diag; NOT deterministic).
//                       Multi-task sweeps write PATH.taskN; inspect with
//                       `ftgcs_report`
//   --no-monitors       disable the online invariant monitors (they are on
//                       by default; results go to the --timing footer)
//   --quiet             table only, no banner
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/exp.h"
#include "metrics/table.h"

namespace {

using namespace ftgcs;

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: ftgcs_bench <list | run <scenario> | sweep "
               "<scenario>> [--threads N] [--sink table|csv|jsonl] "
               "[--seeds a,b,c] [--axis name=v1,v2]... [--worst] "
               "[--per-seed] [--timing] [--shards T] [--trace PATH] "
               "[--metrics PATH] [--no-monitors] [--quiet]\n");
  std::exit(code);
}

int cmd_list() {
  metrics::Table table({"scenario", "protocol", "topology", "points",
                        "seeds", "claim"});
  const exp::Registry& registry = exp::Registry::instance();
  for (const std::string& name : registry.names()) {
    const exp::ScenarioSpec* spec = registry.find(name);
    table.add_row({spec->name, exp::protocol_name(spec->protocol),
                   spec->topology.describe(),
                   metrics::Table::integer(
                       static_cast<long long>(spec->num_points())),
                   metrics::Table::integer(
                       static_cast<long long>(spec->seeds.size())),
                   spec->title});
  }
  table.print(std::cout);
  std::printf("\n%zu scenarios. `ftgcs_bench run <scenario>` executes one; "
              "`sweep` accepts --axis/--seeds overrides.\n",
              registry.size());
  return 0;
}

/// `run` executes the registered grid verbatim; `sweep` (allow_overrides)
/// additionally accepts --axis/--seeds/--worst/--per-seed.
int cmd_run(const std::vector<std::string>& args, bool allow_overrides) {
  if (args.empty()) usage(2);
  const std::string name = args[0];

  exp::ScenarioSpec spec;
  if (const exp::ScenarioSpec* found = exp::Registry::instance().find(name)) {
    spec = *found;
  } else {
    std::fprintf(stderr,
                 "ftgcs_bench: unknown scenario '%s' (see `ftgcs_bench "
                 "list`)\n",
                 name.c_str());
    return 2;
  }

  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  std::string sink_name = "table";
  bool quiet = false;
  bool timing = false;

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage(2);
      return args[++i];
    };
    if (!allow_overrides &&
        (arg == "--seeds" || arg == "--axis" || arg == "--worst" ||
         arg == "--per-seed")) {
      std::fprintf(stderr,
                   "ftgcs_bench: '%s' overrides the registered grid — use "
                   "`ftgcs_bench sweep %s %s ...`\n",
                   arg.c_str(), name.c_str(), arg.c_str());
      return 2;
    }
    if (arg == "--threads") {
      threads = exp::parse_integer<int>(arg, next(), 1);
    } else if (arg == "--sink") {
      sink_name = next();
    } else if (arg == "--seeds") {
      spec.seeds.clear();
      std::istringstream list(next());
      for (std::string token; std::getline(list, token, ',');) {
        if (token.empty()) continue;
        spec.seeds.push_back(exp::parse_integer<std::uint64_t>(arg, token));
      }
      if (spec.seeds.empty()) usage(2);
    } else if (arg == "--axis") {
      exp::override_axis(spec, exp::parse_axis(next()));
    } else if (arg == "--worst") {
      spec.aggregation = exp::SeedAggregation::kWorstOverSeeds;
    } else if (arg == "--per-seed") {
      spec.aggregation = exp::SeedAggregation::kPerSeed;
    } else if (arg == "--shards") {
      spec.shards = exp::parse_integer<int>(arg, next(), 1);
    } else if (arg == "--trace") {
      spec.trace_path = next();
      if (spec.trace_path.empty()) usage(2);
    } else if (arg == "--metrics") {
      spec.metrics_path = next();
      if (spec.metrics_path.empty()) usage(2);
    } else if (arg == "--no-monitors") {
      spec.monitors = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--timing") {
      timing = true;
    } else {
      std::fprintf(stderr, "ftgcs_bench: unknown option '%s'\n", arg.c_str());
      usage(2);
    }
  }

  if (!quiet) {
    std::printf("\n==========================================================\n");
    std::printf("%s — %s\n", spec.name.c_str(), spec.title.c_str());
    std::printf("==========================================================\n");
    std::printf("%s\n\n", spec.description.c_str());
  }

  const std::unique_ptr<exp::ResultSink> sink = exp::make_sink(sink_name);
  exp::SweepRunner runner({threads, timing});
  const exp::SweepResult result = runner.run(spec);
  sink->write(result, std::cout);
  if (!quiet) {
    std::printf("\n%zu rows (%zu tasks, %d threads)\n", result.rows.size(),
                spec.num_tasks(), threads);
    if (timing) exp::write_timing_footer(result, spec, std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  exp::register_builtin_scenarios();
  if (argc < 2) usage(2);
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(args, /*allow_overrides=*/false);
    if (command == "sweep") return cmd_run(args, /*allow_overrides=*/true);
    if (command == "--help" || command == "-h" || command == "help") {
      usage(0);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ftgcs_bench: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "ftgcs_bench: unknown command '%s'\n",
               command.c_str());
  usage(2);
}
