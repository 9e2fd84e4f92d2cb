#include "src/support/table.h"

#include <gtest/gtest.h>

namespace o1mem {
namespace {

TEST(TableTest, FormatsNumbers) {
  EXPECT_EQ(Table::Int(12345), "12345");
  EXPECT_EQ(Table::Num(2.0), "2.0");
  EXPECT_EQ(Table::Num(0.125), "0.125");
}

TEST(TableTest, RowCountExcludesHeader) {
  Table t("demo");
  EXPECT_EQ(t.row_count(), 0u);
  t.AddRow({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.row_count(), 1u);
}

}  // namespace
}  // namespace o1mem
