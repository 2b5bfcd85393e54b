#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>

#include "metrics/table.h"

namespace ftgcs::obs {

namespace {

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) {
    ++i;
  }
}

bool parse_string(const std::string& s, std::size_t& i, std::string* out,
                  std::string* error) {
  if (i >= s.size() || s[i] != '"') {
    *error = "expected '\"'";
    return false;
  }
  ++i;
  out->clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      ++i;
      if (i >= s.size()) break;
      switch (s[i]) {
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        default: *out += s[i]; break;
      }
    } else {
      *out += s[i];
    }
    ++i;
  }
  if (i >= s.size()) {
    *error = "unterminated string";
    return false;
  }
  ++i;  // closing quote
  return true;
}

bool parse_value(const std::string& s, std::size_t& i, JsonValue* out,
                 std::string* error) {
  skip_ws(s, i);
  if (i >= s.size()) {
    *error = "expected value";
    return false;
  }
  const char c = s[i];
  if (c == '"') {
    out->kind = JsonValue::Kind::kString;
    return parse_string(s, i, &out->text, error);
  }
  if (c == '{' || c == '[') {
    *error = "nested structures are not part of the metrics grammar";
    return false;
  }
  if (s.compare(i, 4, "true") == 0) {
    out->kind = JsonValue::Kind::kBool;
    out->number = 1.0;
    i += 4;
    return true;
  }
  if (s.compare(i, 5, "false") == 0) {
    out->kind = JsonValue::Kind::kBool;
    out->number = 0.0;
    i += 5;
    return true;
  }
  if (s.compare(i, 4, "null") == 0) {
    out->kind = JsonValue::Kind::kNull;
    i += 4;
    return true;
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str() + i, &end);
  if (end == s.c_str() + i) {
    *error = "malformed number";
    return false;
  }
  out->kind = JsonValue::Kind::kNumber;
  out->number = v;
  i = static_cast<std::size_t>(end - s.c_str());
  return true;
}

}  // namespace

const JsonValue* JsonLine::find(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonLine::number(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

std::string JsonLine::text(const std::string& key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->text : "";
}

bool parse_json_line(const std::string& line, JsonLine* out,
                     std::string* error) {
  out->fields.clear();
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') {
    *error = "expected '{'";
    return false;
  }
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') return true;  // empty object
  while (true) {
    skip_ws(line, i);
    std::string key;
    if (!parse_string(line, i, &key, error)) return false;
    skip_ws(line, i);
    if (i >= line.size() || line[i] != ':') {
      *error = "expected ':'";
      return false;
    }
    ++i;
    JsonValue value;
    if (!parse_value(line, i, &value, error)) return false;
    out->fields.emplace_back(std::move(key), std::move(value));
    skip_ws(line, i);
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') return true;
    *error = "expected ',' or '}'";
    return false;
  }
}

bool load_series(const std::string& path, SeriesData* out,
                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  out->path = path;
  out->rows.clear();
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonLine parsed;
    std::string parse_error;
    if (!parse_json_line(line, &parsed, &parse_error)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ":%zu: ", lineno);
      *error = path + buf + parse_error;
      return false;
    }
    if (lineno == 1) {
      out->header = std::move(parsed);
    } else {
      out->rows.push_back(std::move(parsed));
    }
  }
  if (lineno == 0) {
    *error = path + ": empty file";
    return false;
  }
  return true;
}

void render_summary(const SeriesData& series, std::ostream& os) {
  os << series.path << ": " << series.rows.size() << " probes, "
     << series.header.number("nodes") << " nodes, "
     << series.header.number("clusters") << " clusters\n";
  if (series.rows.empty()) return;
  metrics::Table table({"field", "final", "min", "max"});
  for (const auto& [key, value] : series.rows.front().fields) {
    if (value.kind != JsonValue::Kind::kNumber) continue;
    if (key == "t" || key == "probe") continue;
    double lo = value.number;
    double hi = value.number;
    double fin = value.number;
    for (const JsonLine& row : series.rows) {
      const double v = row.number(key, value.number);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      fin = v;
    }
    table.add_row({key, metrics::Table::num(fin), metrics::Table::num(lo),
                   metrics::Table::num(hi)});
  }
  table.print(os);
}

void render_convergence(const SeriesData& series, std::ostream& os) {
  struct Family {
    const char* bound_key;
    const char* value_key;
    const char* label;
  };
  static const Family kFamilies[] = {
      {"bound_local", "local_max", "local"},
      {"bound_global", "global_max", "global"},
      {"bound_intra", "intra_max", "intra"},
      {"bound_m_lag", "m_lag", "m_lag"},
  };
  metrics::Table table({"envelope", "bound", "first_within_t", "first_probe",
                        "worst_value", "min_margin"});
  for (const Family& fam : kFamilies) {
    const double bound = series.header.number(fam.bound_key);
    if (bound <= 0.0) continue;
    if (!series.rows.empty() &&
        series.rows.front().find(fam.value_key) == nullptr) {
      continue;
    }
    double first_t = -1.0;
    long long first_probe = -1;
    double worst = 0.0;
    for (const JsonLine& row : series.rows) {
      const double v = row.number(fam.value_key);
      worst = std::max(worst, v);
      if (first_t < 0.0 && v <= bound) {
        first_t = row.number("t");
        first_probe = static_cast<long long>(row.number("probe"));
      }
    }
    table.add_row({fam.label, metrics::Table::num(bound),
                   first_t < 0.0 ? "never" : metrics::Table::num(first_t),
                   first_probe < 0 ? "-"
                                   : metrics::Table::integer(first_probe),
                   metrics::Table::num(worst),
                   metrics::Table::num(bound - worst)});
  }
  if (table.rows() == 0) {
    os << "no envelope bounds in header (monitors were off)\n";
    return;
  }
  table.print(os);
}

namespace {

const JsonLine* summary_row(const SeriesData& profile) {
  for (const JsonLine& row : profile.rows) {
    if (row.text("section") == "summary") return &row;
  }
  return nullptr;
}

}  // namespace

void render_profile(const SeriesData& profile, std::ostream& os) {
  metrics::Table phases({"shard", "merge_ms", "run_ms", "wait_ms",
                         "windows"});
  const JsonLine* summary = nullptr;
  const JsonLine* last_diag = nullptr;
  metrics::Table spans({"span", "ms"});
  for (const JsonLine& row : profile.rows) {
    const std::string section = row.text("section");
    if (section == "phase") {
      phases.add_row({metrics::Table::integer(
                          static_cast<long long>(row.number("shard"))),
                      metrics::Table::num(row.number("merge_ms")),
                      metrics::Table::num(row.number("run_ms")),
                      metrics::Table::num(row.number("wait_ms")),
                      metrics::Table::integer(
                          static_cast<long long>(row.number("windows")))});
    } else if (section == "summary") {
      summary = &row;
    } else if (section == "span") {
      spans.add_row({row.text("name"), metrics::Table::num(row.number("ms"))});
    } else if (section == "diag") {
      last_diag = &row;
    }
  }
  if (phases.rows() > 0) {
    os << "per-shard phases (wall clock, nondeterministic):\n";
    phases.print(os);
  }
  if (summary != nullptr) {
    os << "imbalance (max/mean run-phase): "
       << metrics::Table::num(summary->number("imbalance")) << " over "
       << static_cast<long long>(summary->number("shards")) << " shards\n";
    if (summary->find("commit_ms") != nullptr) {
      os << "driver trace commit overlapped with the run phase: "
         << metrics::Table::num(summary->number("commit_ms"))
         << " ms (shards' start-barrier wait: "
         << metrics::Table::num(summary->number("wait_ms")) << " ms)\n";
    }
  }
  if (spans.rows() > 0) {
    os << "top-level spans:\n";
    spans.print(os);
  }
  if (last_diag != nullptr) {
    os << "final queue/shard diag (deterministic per config, "
          "engine/shard-dependent):\n";
    metrics::Table diag({"field", "value"});
    for (const auto& [key, value] : last_diag->fields) {
      if (value.kind != JsonValue::Kind::kNumber || key == "t") continue;
      diag.add_row({key, metrics::Table::num(value.number)});
    }
    diag.print(os);
  }
}

void render_profile_diff(const SeriesData& a, const SeriesData& b,
                         std::ostream& os) {
  const JsonLine* sa = summary_row(a);
  const JsonLine* sb = summary_row(b);
  if (sa == nullptr || sb == nullptr) return;
  // Numeric fields of either row, A's order first; a field one side lacks
  // (a sidecar from an older binary) shows as "-".
  const auto number_of = [](const JsonLine& row, const std::string& key) {
    const JsonValue* v = row.find(key);
    return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v : nullptr;
  };
  metrics::Table table({"phase_total", "a", "b", "b_minus_a"});
  for (const JsonLine* row : {sa, sb}) {
    for (const auto& [key, value] : row->fields) {
      if (value.kind != JsonValue::Kind::kNumber) continue;
      if (row == sb && number_of(*sa, key) != nullptr) continue;
      const JsonValue* va = number_of(*sa, key);
      const JsonValue* vb = number_of(*sb, key);
      table.add_row(
          {key, va != nullptr ? metrics::Table::num(va->number) : "-",
           vb != nullptr ? metrics::Table::num(vb->number) : "-",
           va != nullptr && vb != nullptr
               ? metrics::Table::num(vb->number - va->number)
               : "-"});
    }
  }
  os << "sidecar phase totals (wall clock, shown, never compared):\n";
  table.print(os);
}

int render_diff(const SeriesData& a, const SeriesData& b, std::ostream& os) {
  if (a.rows.size() != b.rows.size()) {
    os << "probe count differs: " << a.rows.size() << " vs " << b.rows.size()
       << "\n";
  }
  const std::size_t n = std::min(a.rows.size(), b.rows.size());
  // Shared numeric keys, in A's field order.
  std::vector<std::string> keys;
  if (!a.rows.empty() && !b.rows.empty()) {
    for (const auto& [key, value] : a.rows.front().fields) {
      if (value.kind != JsonValue::Kind::kNumber) continue;
      const JsonValue* other = b.rows.front().find(key);
      if (other != nullptr && other->kind == JsonValue::Kind::kNumber) {
        keys.push_back(key);
      }
    }
  }
  metrics::Table table({"field", "final_a", "final_b", "max_abs_delta"});
  int differing = 0;
  for (const std::string& key : keys) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_delta = std::max(
          max_delta, std::fabs(a.rows[i].number(key) - b.rows[i].number(key)));
    }
    const double fin_a = n > 0 ? a.rows[n - 1].number(key) : 0.0;
    const double fin_b = n > 0 ? b.rows[n - 1].number(key) : 0.0;
    if (max_delta > 0.0) ++differing;
    table.add_row({key, metrics::Table::num(fin_a),
                   metrics::Table::num(fin_b),
                   metrics::Table::num(max_delta)});
  }
  table.print(os);
  os << (differing == 0 ? "series identical over aligned probes\n"
                        : "differing fields: " + std::to_string(differing) +
                              "\n");
  if (a.rows.size() != b.rows.size()) ++differing;
  return differing;
}

}  // namespace ftgcs::obs
