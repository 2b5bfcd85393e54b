// ftgcs_report — render metrics series (JSONL written via
// `ftgcs_bench --metrics`) as human-readable tables.
//
//   ftgcs_report show <metrics.jsonl>     summary + convergence tables;
//                                         when a sibling <path>.profile
//                                         exists, shard phase/imbalance
//                                         and span tables too
//   ftgcs_report diff <a> <b>             A/B field-by-field comparison;
//                                         when both sidecars exist, their
//                                         phase totals side by side too
//
// `diff` exits 0 when the two deterministic series are bit-equal
// trajectories and 1 when any shared field differs at any probe (the
// table shows the max |A−B| per field). Exit 2 = usage / unreadable or
// malformed file. The .profile sidecars' wall-clock sections never count
// toward that verdict — profiles are nondeterministic by contract and
// only ever rendered, never compared.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/report.h"

namespace {

using namespace ftgcs;

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: ftgcs_report <show <metrics.jsonl> | diff <a> <b>>\n");
  std::exit(code);
}

/// Loads `path` or exits 2 with the parse/I/O error on stderr.
obs::SeriesData load_or_die(const std::string& path) {
  obs::SeriesData series;
  std::string error;
  if (!obs::load_series(path, &series, &error)) {
    std::fprintf(stderr, "ftgcs_report: %s\n", error.c_str());
    std::exit(2);
  }
  return series;
}

int cmd_show(const std::string& path) {
  const obs::SeriesData series = load_or_die(path);
  std::printf("%s: %zu probes\n", path.c_str(), series.rows.size());
  obs::render_summary(series, std::cout);
  obs::render_convergence(series, std::cout);
  // The .profile sidecar is optional (written only when the run had a
  // metrics path; absent for hand-copied series). Missing file: skip
  // quietly. Present-but-malformed: that is a real error, surface it.
  const std::string profile_path = path + ".profile";
  obs::SeriesData profile;
  std::string error;
  if (obs::load_series(profile_path, &profile, &error)) {
    std::printf("\n%s:\n", profile_path.c_str());
    obs::render_profile(profile, std::cout);
  } else if (error.find("cannot open") == std::string::npos) {
    std::fprintf(stderr, "ftgcs_report: %s\n", error.c_str());
    return 2;
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const obs::SeriesData a = load_or_die(path_a);
  const obs::SeriesData b = load_or_die(path_b);
  const int differing = obs::render_diff(a, b, std::cout);
  // Sidecars are optional and never part of the verdict: a missing or
  // unreadable one only drops the phase-totals table.
  obs::SeriesData profile_a;
  obs::SeriesData profile_b;
  std::string error;
  if (obs::load_series(path_a + ".profile", &profile_a, &error) &&
      obs::load_series(path_b + ".profile", &profile_b, &error)) {
    obs::render_profile_diff(profile_a, profile_b, std::cout);
  }
  if (differing == 0) {
    std::printf("identical trajectories: %zu probes\n", a.rows.size());
    return 0;
  }
  std::printf("%d field(s) differ\n", differing);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "--help" || command == "-h" || command == "help") {
      usage(0);
    }
    if (command == "show") {
      if (args.size() != 1) usage(2);
      return cmd_show(args[0]);
    }
    if (command == "diff") {
      if (args.size() != 2) usage(2);
      return cmd_diff(args[0], args[1]);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ftgcs_report: %s\n", error.what());
    return 2;
  }
  std::fprintf(stderr, "ftgcs_report: unknown command '%s'\n",
               command.c_str());
  usage(2);
}
