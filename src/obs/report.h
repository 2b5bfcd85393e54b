// Reader + renderers for the metrics planes (the ftgcs_report CLI).
//
// The input grammar is deliberately tiny: one flat JSON object per line,
// values restricted to numbers, strings, booleans, and null — exactly
// what ProbeSampler and PhaseProfiler emit. The parser rejects anything
// else (nested objects/arrays), which doubles as a schema guard: if a
// future writer smuggles structure into the series, every reader breaks
// loudly instead of skewing silently.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ftgcs::obs {

struct JsonValue {
  enum class Kind { kNumber, kString, kBool, kNull };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string text;
};

/// One parsed line: ordered key → value pairs (order preserved so diffs
/// and tables render in the writer's field order).
struct JsonLine {
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(const std::string& key) const;
  /// Numeric field or `fallback` when absent / non-numeric.
  double number(const std::string& key, double fallback = 0.0) const;
  /// String field or "" when absent.
  std::string text(const std::string& key) const;
};

/// A loaded JSONL file: header row (line 1) + data rows.
struct SeriesData {
  std::string path;
  JsonLine header;
  std::vector<JsonLine> rows;
};

/// Parses one line; returns false (with *error set) on malformed input.
bool parse_json_line(const std::string& line, JsonLine* out,
                     std::string* error);

/// Loads a whole file; returns false with *error on I/O or parse errors
/// (the offending line number is included).
bool load_series(const std::string& path, SeriesData* out,
                 std::string* error);

// ---- renderers (ftgcs_report) ----

/// Per-field summary of the deterministic series: final value, min, max
/// over all probes.
void render_summary(const SeriesData& series, std::ostream& os);

/// Convergence table: for each envelope family with a positive bound in
/// the header, the first probe at (and staying under is not required —
/// the paper's envelopes are per-instant) which the measured value is
/// within the bound, plus the worst margin.
void render_convergence(const SeriesData& series, std::ostream& os);

/// Sidecar tables: per-shard phase totals + imbalance, top-level spans,
/// and the final queue-tier diag row.
void render_profile(const SeriesData& profile, std::ostream& os);

/// The summary rows of two sidecars side by side (merge/run/wait and the
/// driver's overlapped commit_ms, per field A, B and B − A); prints
/// nothing when either has no summary row (an unsharded run). Wall-clock
/// numbers: rendered, never part of a diff's verdict.
void render_profile_diff(const SeriesData& a, const SeriesData& b,
                         std::ostream& os);

/// A/B diff of two deterministic series: per shared numeric field, the
/// max |A−B| over aligned probes and the final values. Returns the
/// number of fields that differ anywhere (0 = identical trajectories).
int render_diff(const SeriesData& a, const SeriesData& b, std::ostream& os);

}  // namespace ftgcs::obs
