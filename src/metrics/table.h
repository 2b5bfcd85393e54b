// Fixed-width table printer for experiment output (paper-style rows);
// exp::CsvSink renders the machine-readable form.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ftgcs::metrics {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` significant digits.
  static std::string num(double value, int precision = 5);
  static std::string integer(long long value);

  /// Pretty fixed-width rendering.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ftgcs::metrics
