// ftgcs_trace — inspect and compare binary event traces (.ftr files
// written via `ftgcs_bench --trace`).
//
//   ftgcs_trace dump <file> [--limit N]   print records as text
//   ftgcs_trace stats <file>              record/kind/size summary
//   ftgcs_trace diff <a> <b>              first divergent record, if any
//
// `diff` exits 0 when the traces are identical and 1 at the first
// divergence (payload mismatch, early end, or a decode error — a corrupted
// byte surfaces as divergence at the exact record it garbles, with its
// file offset). Exit 2 = usage / unreadable file.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "metrics/table.h"
#include "trace/diff.h"
#include "trace/format.h"
#include "trace/reader.h"

namespace {

using namespace ftgcs;

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: ftgcs_trace <dump <file> [--limit N] | stats <file> | "
               "diff <a> <b>>\n");
  std::exit(code);
}

const char* kind_name(std::uint8_t kind) {
  switch (kind) {
    case 0:
      return "cluster_pulse";
    case 1:
      return "max_level";
    case 2:
      return "share";
    case 3:
      return "propose";
    default:
      return "unknown";
  }
}

void print_record(const trace::Record& r) {
  std::printf("#%" PRIu64 " @%.17g %s %d -> %d", r.seq, r.at,
              kind_name(r.kind), r.sender, r.dest);
  if (trace::kind_has_level(r.kind)) std::printf(" level=%d", r.level);
  if (trace::kind_has_value(r.kind)) std::printf(" value=%.17g", r.value);
  std::printf("  [offset %" PRIu64 "]\n", r.offset);
}

int cmd_dump(const std::string& path, std::uint64_t limit) {
  trace::TraceReader reader(path);
  trace::Record record;
  std::uint64_t shown = 0;
  while (reader.next(record)) {
    if (shown++ < limit) print_record(record);
  }
  if (shown > limit) {
    std::printf("... %" PRIu64 " more records (raise --limit)\n",
                shown - limit);
  }
  std::printf("%" PRIu64 " records\n", reader.records_read());
  return 0;
}

int cmd_stats(const std::string& path) {
  trace::TraceReader reader(path);
  trace::Record record;
  std::uint64_t by_kind[5] = {0, 0, 0, 0, 0};
  std::uint64_t bytes_by_kind[5] = {0, 0, 0, 0, 0};
  double first_at = 0.0;
  double last_at = 0.0;
  bool any = false;
  // Per-record sizes come from offset deltas (records are variable-width:
  // the encoder delta-compresses seq/time), so each record's size is the
  // gap to the next record's start; the final record ends where the read
  // cursor rests (the end marker, attributed to no kind).
  int prev_kind = -1;
  std::uint64_t prev_offset = 0;
  while (reader.next(record)) {
    const int k = record.kind < 4 ? record.kind : 4;
    ++by_kind[k];
    if (prev_kind >= 0) bytes_by_kind[prev_kind] += record.offset - prev_offset;
    prev_kind = k;
    prev_offset = record.offset;
    if (!any) first_at = record.at;
    last_at = record.at;
    any = true;
  }
  if (prev_kind >= 0) bytes_by_kind[prev_kind] += reader.offset() - prev_offset;
  const std::uint64_t total = reader.records_read();
  // At a clean end the read cursor sits on the trailer: file size = +8.
  const std::uint64_t bytes = reader.offset() + 8;
  std::printf("%s: %" PRIu64 " records, %" PRIu64 " bytes", path.c_str(),
              total, bytes);
  if (total > 0) {
    std::printf(" (%.2f bytes/record)",
                static_cast<double>(bytes) / static_cast<double>(total));
  }
  std::printf("\n");
  if (any) std::printf("time span [%.6g, %.6g]\n", first_at, last_at);
  std::uint64_t payload_bytes = 0;
  for (const std::uint64_t b : bytes_by_kind) payload_bytes += b;
  metrics::Table table(
      {"kind", "records", "rec_share", "bytes", "byte_share", "b/rec"});
  for (int k = 0; k < 5; ++k) {
    if (by_kind[k] == 0) continue;
    table.add_row(
        {k < 4 ? kind_name(static_cast<std::uint8_t>(k)) : "unknown",
         metrics::Table::integer(static_cast<long long>(by_kind[k])),
         metrics::Table::num(total > 0 ? 100.0 *
                                             static_cast<double>(by_kind[k]) /
                                             static_cast<double>(total)
                                       : 0.0,
                             4),
         metrics::Table::integer(static_cast<long long>(bytes_by_kind[k])),
         metrics::Table::num(
             payload_bytes > 0
                 ? 100.0 * static_cast<double>(bytes_by_kind[k]) /
                       static_cast<double>(payload_bytes)
                 : 0.0,
             4),
         metrics::Table::num(
             by_kind[k] > 0 ? static_cast<double>(bytes_by_kind[k]) /
                                  static_cast<double>(by_kind[k])
                            : 0.0,
             4)});
  }
  if (table.rows() > 0) table.print(std::cout);
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const trace::TraceDiff diff = trace::diff_traces(path_a, path_b);
  if (diff.identical) {
    std::printf("identical: %" PRIu64 " records\n", diff.records_compared);
    return 0;
  }
  std::printf("divergence at record #%" PRIu64 " (%s)\n", diff.seq,
              diff.reason.c_str());
  std::printf("  a: offset %" PRIu64 "  %s\n", diff.offset_a,
              path_a.c_str());
  if (diff.has_record_a) {
    std::printf("     ");
    print_record(diff.record_a);
  }
  std::printf("  b: offset %" PRIu64 "  %s\n", diff.offset_b,
              path_b.c_str());
  if (diff.has_record_b) {
    std::printf("     ");
    print_record(diff.record_b);
  }
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
    if (command == "dump") {
      if (args.empty()) usage(2);
      std::uint64_t limit = 50;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--limit" && i + 1 < args.size()) {
          limit = exp::parse_integer<std::uint64_t>("--limit", args[++i]);
        } else {
          usage(2);
        }
      }
      return cmd_dump(args[0], limit);
    }
    if (command == "stats") {
      if (args.size() != 1) usage(2);
      return cmd_stats(args[0]);
    }
    if (command == "diff") {
      if (args.size() != 2) usage(2);
      return cmd_diff(args[0], args[1]);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ftgcs_trace: %s\n", error.what());
    return 2;
  }
  std::fprintf(stderr, "ftgcs_trace: unknown command '%s'\n",
               command.c_str());
  usage(2);
}
