// Aligned-table reporter used by the benchmark harness to print the
// paper-figure series (one table per figure, same axes as the paper) and by
// the procfs snapshot for its latency and tail tables.
#ifndef O1MEM_SRC_SUPPORT_TABLE_H_
#define O1MEM_SRC_SUPPORT_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace o1mem {

// Collects rows of string cells and renders them as an aligned text table.
// The first added row is the header.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void AddRow(std::vector<std::string> cells);

  // Convenience for mixed numeric rows: formats doubles with
  // 3 significant decimals and integers exactly.
  static std::string Num(double v);
  static std::string Int(uint64_t v);

  // The aligned rows: every cell padded to its column's width, the header
  // underlined with dashes.
  std::string Text() const;

  // Writes a `=== title ===` banner and Text() to `out` (default stdout).
  void Print(std::FILE* out = stdout) const;

  const std::string& title() const { return title_; }
  size_t row_count() const { return rows_.empty() ? 0 : rows_.size() - 1; }

  // All rows including the header (the JSON bench reporter mirrors tables
  // from here).
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SUPPORT_TABLE_H_
