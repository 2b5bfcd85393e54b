#include "metrics/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/assert.h"

namespace ftgcs::metrics {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  FTGCS_EXPECTS(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  FTGCS_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << value;
  return os.str();
}

std::string Table::integer(long long value) { return std::to_string(value); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << "\n";
  };

  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

}  // namespace ftgcs::metrics
