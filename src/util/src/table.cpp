#include "convbound/util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "convbound/util/check.hpp"

namespace convbound {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  CB_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> row) {
  CB_CHECK_MSG(row.size() == header_.size(),
               "row arity " << row.size() << " != header arity "
                            << header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::fmt_int(long long v) { return std::to_string(v); }

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " ");
      os << row[c] << std::string(width[c] - row[c].size(), ' ') << " |";
    }
    os << '\n';
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|" : "") << std::string(width[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace convbound
