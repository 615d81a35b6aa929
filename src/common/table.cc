#include "src/common/table.h"

#include <cstdarg>
#include <cstdio>

#include "src/common/status.h"

namespace faasnap {

namespace {

bool LooksNumeric(const std::string& s) {
  if (s.empty()) {
    return false;
  }
  // Numbers, decimal points, signs, and unit suffixes like "ms"/"MiB" count.
  bool has_digit = false;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      has_digit = true;
    } else if (c != '.' && c != '-' && c != '+' && c != ' ' && c != '%' && c != 'x' &&
               (c < 'A' || c > 'z')) {
      return false;
    }
  }
  return has_digit && (s[0] == '-' || s[0] == '+' || (s[0] >= '0' && s[0] <= '9'));
}

}  // namespace

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  FAASNAP_CHECK(!headers_.empty());
}

void TextTable::AddRow(std::vector<std::string> cells) {
  FAASNAP_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  // A column right-aligns only when every body cell in it looks numeric, so a
  // column that mixes labels and numbers ("A" beside "1x") stays flush left.
  std::vector<bool> numeric(headers_.size(), true);
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      numeric[c] = numeric[c] && LooksNumeric(row[c]);
    }
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row, bool align_numeric) {
    for (size_t c = 0; c < row.size(); ++c) {
      const bool right = align_numeric && numeric[c];
      const size_t pad = widths[c] - row[c].size();
      if (c > 0) {
        out += "  ";
      }
      if (right) {
        out.append(pad, ' ');
        out += row[c];
      } else {
        out += row[c];
        if (c + 1 < row.size()) {
          out.append(pad, ' ');
        }
      }
    }
    out += '\n';
  };
  emit_row(headers_, /*align_numeric=*/false);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c > 0 ? 2 : 0);
  }
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) {
    emit_row(row, /*align_numeric=*/true);
  }
  return out;
}

std::string FormatCell(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace faasnap
