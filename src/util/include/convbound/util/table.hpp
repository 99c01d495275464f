// Console table emission used by the benchmark harness to print
// paper-style result tables.
#pragma once

#include <string>
#include <vector>

namespace convbound {

/// Collects rows of strings and renders an aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must match the header arity.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with fixed precision.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt_int(long long v);

  /// Render with column alignment and a rule under the header.
  std::string to_string() const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace convbound
