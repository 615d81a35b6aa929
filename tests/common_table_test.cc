#include "src/common/table.h"

#include <gtest/gtest.h>

namespace faasnap {
namespace {

TEST(TextTable, RendersHeadersAndRows) {
  TextTable table({"function", "mode", "total (ms)"});
  table.AddRow({"image", "faasnap", "136.2"});
  table.AddRow({"hello-world", "reap", "70.0"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("function"), std::string::npos);
  EXPECT_NE(out.find("faasnap"), std::string::npos);
  EXPECT_NE(out.find("136.2"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, NumericCellsRightAlign) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1.5"});
  table.AddRow({"b", "123.5"});
  std::string out = table.ToString();
  // "1.5" should be padded to align with "123.5"'s right edge.
  EXPECT_NE(out.find("  1.5"), std::string::npos);
}

TEST(TextTable, MixedColumnAlignsLeft) {
  // "A" and "1x" share a column: one alignment for the whole column, so the
  // cells line up flush left instead of splitting left and right.
  TextTable table({"input", "ms"});
  table.AddRow({"A", "9.5"});
  table.AddRow({"1x", "10.5"});
  table.AddRow({"0.5x", "8.0"});
  EXPECT_EQ(table.ToString(),
            "input  ms\n"
            "-----------\n"
            "A       9.5\n"
            "1x     10.5\n"
            "0.5x    8.0\n");
}

TEST(TextTable, ColumnsWidenToContent) {
  TextTable table({"x"});
  table.AddRow({"very-long-cell-content"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("very-long-cell-content"), std::string::npos);
}

TEST(TextTableDeathTest, WrongCellCountAborts) {
  TextTable table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "FAASNAP_CHECK");
}

TEST(FormatCell, PrintfStyle) {
  EXPECT_EQ(FormatCell("%.1f", 3.14159), "3.1");
  EXPECT_EQ(FormatCell("%s/%d", "x", 7), "x/7");
}

}  // namespace
}  // namespace faasnap
