// Result sinks: pluggable renderings of a SweepResult.
//
//   TableSink     aligned fixed-width table (the scenario's chosen columns)
//   CsvSink       one header row + raw values, every metric
//   JsonLinesSink one JSON object per row, every metric
//
// plus write_timing_footer, the diagnostics footer of `--timing`.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "exp/sweep.h"

namespace ftgcs::exp {

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void write(const SweepResult& result, std::ostream& os) const = 0;
};

/// Pretty table of the scenario's selected columns. Metrics named `in_*`
/// render as yes/NO; integral values render without decimals.
class TableSink final : public ResultSink {
 public:
  void write(const SweepResult& result, std::ostream& os) const override;
};

/// CSV with every metric (axes first), raw full-precision values.
class CsvSink final : public ResultSink {
 public:
  void write(const SweepResult& result, std::ostream& os) const override;
};

/// JSON-lines: {"scenario":…, "point":{…}, "seed":…, "metrics":{…}}.
class JsonLinesSink final : public ResultSink {
 public:
  void write(const SweepResult& result, std::ostream& os) const override;
};

/// The `--timing` footer: aggregate throughput, then the queue, runs,
/// bytes, shards, monitors, trace, metrics and phases lines, each
/// rendered from the field tables' rows on that line (README, "The
/// `--timing` footer").
void write_timing_footer(const SweepResult& result, const ScenarioSpec& spec,
                         std::ostream& os);

/// Factory by name: "table", "csv", "jsonl". Throws std::invalid_argument.
std::unique_ptr<ResultSink> make_sink(const std::string& name);

}  // namespace ftgcs::exp
