#include "src/support/table.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

namespace o1mem {

void Table::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string Table::Num(double v) {
  char buf[64];
  if (std::abs(v) >= 1000.0 || v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

std::string Table::Int(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string Table::Text() const {
  std::string out;
  size_t cols = 0;
  for (const auto& row : rows_) {
    cols = std::max(cols, row.size());
  }
  std::vector<size_t> width(cols, 0);
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      out += rows_[r][c];
      out.append(width[c] - rows_[r][c].size() + 2, ' ');
    }
    out += '\n';
    if (r == 0) {
      size_t total = 0;
      for (size_t c = 0; c < cols; ++c) {
        total += width[c] + 2;
      }
      out.append(total, '-');
      out += '\n';
    }
  }
  return out;
}

void Table::Print(std::FILE* out) const {
  std::fprintf(out, "\n=== %s ===\n", title_.c_str());
  std::fputs(Text().c_str(), out);
}

}  // namespace o1mem
