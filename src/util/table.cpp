#include "util/table.hpp"

#include <cassert>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace mstc::util {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  assert(!columns_.empty());
}

void Table::add_row(std::vector<Cell> row) {
  assert(row.size() == columns_.size());
  rows_.push_back(std::move(row));
}

std::string Table::format_cell(const Cell& cell) const {
  if (const auto* text = std::get_if<std::string>(&cell)) return *text;
  if (const auto* integer = std::get_if<std::int64_t>(&cell)) {
    return std::to_string(*integer);
  }
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision_) << std::get<double>(cell);
  return out.str();
}

void Table::print(std::ostream& out) const {
  if (!title_.empty()) out << title_ << '\n';
  std::vector<std::size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }
  const auto print_line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2)
          << cells[c];
    }
    out << '\n';
  };
  print_line(columns_);
  std::string rule;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  out << rule << '\n';
  for (const auto& row : rendered) print_line(row);
  out.flush();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out << columns_[c] << (c + 1 < columns_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << format_cell(row[c]) << (c + 1 < row.size() ? "," : "\n");
    }
  }
  return out.str();
}

void Table::maybe_write_csv(const std::string& dir,
                            const std::string& name) const {
  if (dir.empty()) return;
  std::ofstream file(dir + "/" + name + ".csv");
  if (file) file << to_csv();
}

std::string format_ci(double mean, double half_width, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << mean << " ±"
      << half_width;
  return out.str();
}

}  // namespace mstc::util
