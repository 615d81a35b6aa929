// Fixed-width ASCII table rendering: artifact_runner's restore-matrix table
// and the bench drivers' rows, kept uniform and diffable across runs.

#ifndef FAASNAP_SRC_COMMON_TABLE_H_
#define FAASNAP_SRC_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace faasnap {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  // Adds a row; must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  // Renders with a header underline and 2-space column gaps. A column whose
  // body cells all look numeric is right-aligned; any other is left-aligned.
  std::string ToString() const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// printf-style convenience: FormatCell("%.1f", x).
std::string FormatCell(const char* fmt, ...);

}  // namespace faasnap

#endif  // FAASNAP_SRC_COMMON_TABLE_H_
