#include "exp/sinks.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "metrics/table.h"

namespace ftgcs::exp {

namespace {

bool integral(double v) {
  return std::floor(v) == v && std::fabs(v) < 1e15;
}

std::string format_metric(const std::string& name, double value) {
  if (name.rfind("in_", 0) == 0) return value >= 0.5 ? "yes" : "NO";
  if (integral(value)) {
    return metrics::Table::integer(static_cast<long long>(value));
  }
  return metrics::Table::num(value, 4);
}

std::string raw(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

bool per_seed_rows(const SweepResult& result) {
  return !result.axis_names.empty() && result.axis_names.back() == "seed";
}

/// Axis cells for one row: the recorded point labels (+ seed if present).
std::vector<std::string> axis_cells(const SweepResult& result,
                                    const RunResult& row) {
  std::vector<std::string> cells;
  for (const auto& [axis, label] : row.point) cells.push_back(label);
  if (per_seed_rows(result)) {
    cells.push_back(metrics::Table::integer(
        static_cast<long long>(row.seed)));
  }
  return cells;
}

bool has_timing(const SweepResult& result) {
  return result.timing.size() == result.rows.size() && !result.rows.empty();
}

}  // namespace

void TableSink::write(const SweepResult& result, std::ostream& os) const {
  std::vector<std::string> headers = result.axis_names;
  for (const auto& column : result.columns) headers.push_back(column);
  if (has_timing(result)) {
    headers.push_back("wall_ms");
    headers.push_back("events_per_sec");
  }
  metrics::Table table(std::move(headers));
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const RunResult& row = result.rows[r];
    std::vector<std::string> cells = axis_cells(result, row);
    for (const auto& column : result.columns) {
      cells.push_back(row.has_metric(column)
                          ? format_metric(column, row.metric(column))
                          : "-");
    }
    if (has_timing(result)) {
      cells.push_back(metrics::Table::integer(
          static_cast<long long>(result.timing[r].wall_ms + 0.5)));
      cells.push_back(metrics::Table::integer(
          static_cast<long long>(result.timing[r].events_per_sec + 0.5)));
    }
    table.add_row(std::move(cells));
  }
  table.print(os);
}

void CsvSink::write(const SweepResult& result, std::ostream& os) const {
  if (result.rows.empty()) return;
  for (std::size_t i = 0; i < result.axis_names.size(); ++i) {
    if (i > 0) os << ',';
    os << result.axis_names[i];
  }
  for (const auto& [name, value] : result.rows.front().metrics) {
    os << ',' << name;
  }
  if (has_timing(result)) os << ",wall_ms,events_per_sec";
  os << '\n';
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const RunResult& row = result.rows[r];
    const auto cells = axis_cells(result, row);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) os << ',';
      os << cells[i];
    }
    for (const auto& [name, value] : row.metrics) {
      os << ',' << raw(value);
    }
    if (has_timing(result)) {
      os << ',' << raw(result.timing[r].wall_ms) << ','
         << raw(result.timing[r].events_per_sec);
    }
    os << '\n';
  }
}

void JsonLinesSink::write(const SweepResult& result, std::ostream& os) const {
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const RunResult& row = result.rows[r];
    os << "{\"scenario\":\"" << result.scenario << "\",\"point\":{";
    bool first = true;
    for (const auto& [axis, label] : row.point) {
      if (!first) os << ',';
      first = false;
      os << '"' << axis << "\":\"" << label << '"';
    }
    os << '}';
    if (per_seed_rows(result)) os << ",\"seed\":" << row.seed;
    os << ",\"metrics\":{";
    first = true;
    for (const auto& [name, value] : row.metrics) {
      if (!first) os << ',';
      first = false;
      os << '"' << name << "\":" << raw(value);
    }
    os << '}';
    if (has_timing(result)) {
      os << ",\"wall_ms\":" << raw(result.timing[r].wall_ms)
         << ",\"events_per_sec\":" << raw(result.timing[r].events_per_sec);
    }
    os << "}\n";
  }
}

namespace {

/// " name=value" for each stat on footer line `line`, in field-table
/// order, leaving out absent (non-finite) values. `head` receives the
/// line's first stat, which gates the optional lines; `skip_head` keeps
/// it out of the text when the line header shows it instead.
std::string footer_stats(const Diagnostics& diag, const char* line,
                         double* head = nullptr, bool skip_head = false) {
  std::string out;
  bool first = true;
  if (head != nullptr) *head = 0.0;
  for_each_stats(
      [&](const auto& stats) {
        using S = std::remove_cvref_t<decltype(stats)>;
        for (const auto& stat : support::kFields<S>) {
          if (stat.line == nullptr || std::strcmp(stat.line, line) != 0) {
            continue;
          }
          const double value = stat.get(stats);
          const bool is_head = std::exchange(first, false);
          if (is_head && head != nullptr) *head = value;
          if ((is_head && skip_head) || !std::isfinite(value)) continue;
          char buf[64];
          std::snprintf(buf, sizeof buf, stat.format, value);
          out += ' ';
          out += stat.name;
          out += '=';
          out += buf;
        }
      },
      diag);
  return out;
}

}  // namespace

void write_timing_footer(const SweepResult& result, const ScenarioSpec& spec,
                         std::ostream& os) {
  char buf[256];
  if (result.total_wall_ms > 0.0 && result.total_events > 0.0) {
    std::snprintf(buf, sizeof buf,
                  "%.3g simulated events in %.0f ms task time — %.2fM "
                  "events/sec/thread aggregate\n",
                  result.total_events, result.total_wall_ms,
                  result.total_events / result.total_wall_ms / 1000.0);
    os << buf;
  }
  os << "queue[ladder]:" << footer_stats(result, "queue")
     << "\nruns[ladder]:" << footer_stats(result, "runs")
     << "\nbytes[queue]:" << footer_stats(result, "bytes") << '\n';

  // The other lines print only when their first stat (the delivery,
  // shard, probe or file count) is nonzero; "off" is stated, never left
  // out. Only FT-GCS runs count deliveries.
  double head = 0.0;
  std::string stats = footer_stats(result, "deliveries", &head);
  if (head > 0.0) os << "deliveries:" << stats << '\n';
  stats = footer_stats(result, "shards", &head, true);
  if (head > 0.0) {
    os << "shards[" << head << "]:" << stats << '\n';
  } else if (spec.shards > 1) {
    os << "shards: requested " << spec.shards
       << ", partition degenerate — ran the single-simulator engine\n";
  }
  stats = footer_stats(result, "monitors", &head);
  if (head > 0.0) {
    os << "monitors[on]:" << stats << '\n';
    const trace::InvariantMonitor::Stats& mon = result.monitor.stats;
    if (mon.has_violation) {
      std::snprintf(buf, sizeof buf,
                    "monitors: FIRST VIOLATION %s value=%.6g bound=%.6g at "
                    "t=%.6g task=%zu events=%llu trace_offset=%llu\n",
                    mon.first.invariant, mon.first.value, mon.first.bound,
                    mon.first.cursor.at, mon.first.task,
                    static_cast<unsigned long long>(mon.first.cursor.events),
                    static_cast<unsigned long long>(
                        mon.first.cursor.trace_offset));
      os << buf;
    }
  } else {
    os << "monitors=off\n";
  }
  for (const auto& [line, path] : {std::pair{"trace", &spec.trace_path},
                                   std::pair{"metrics", &spec.metrics_path}}) {
    stats = footer_stats(result, line, &head);
    if (head > 0.0) {
      os << line << "[on]:" << stats << " (" << *path << ")\n";
    } else {
      os << line << "=off\n";
    }
  }
  stats = footer_stats(result, "phases", &head, true);
  if (head > 0.0) os << "phases[" << head << " shards]:" << stats << '\n';
}

std::unique_ptr<ResultSink> make_sink(const std::string& name) {
  if (name == "table") return std::make_unique<TableSink>();
  if (name == "csv") return std::make_unique<CsvSink>();
  if (name == "jsonl") return std::make_unique<JsonLinesSink>();
  throw std::invalid_argument("unknown sink '" + name +
                              "' (expected table, csv or jsonl)");
}

}  // namespace ftgcs::exp
