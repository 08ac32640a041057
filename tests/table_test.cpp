#include "storage/table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/coding.h"

namespace mate {
namespace {

Table MakeFigure1Candidate() {
  // Candidate table T1 from the paper's running example (Figure 1).
  Table t("T1");
  t.AddColumn("Vorname");
  t.AddColumn("Nachname");
  t.AddColumn("Land");
  t.AddColumn("Besetzung");
  (void)t.AppendRow({"Helmut", "Newton", "Germany", "Photographer"});
  (void)t.AppendRow({"Muhammad", "Lee", "US", "Dancer"});
  (void)t.AppendRow({"Ansel", "Adams", "UK", "Dancer"});
  (void)t.AppendRow({"Ansel", "Adams", "US", "Photographer"});
  (void)t.AppendRow({"Muhammad", "Ali", "US", "Boxer"});
  (void)t.AppendRow({"Muhammad", "Lee", "Germany", "Birder"});
  (void)t.AppendRow({"Gretchen", "Lee", "Germany", "Artist"});
  (void)t.AppendRow({"Adam", "Sandler", "US", "Actor"});
  return t;
}

// Every cell of `t`, row-major, copied out of the column buffers.
std::vector<std::vector<std::string>> AllCells(const Table& t) {
  std::vector<std::vector<std::string>> rows;
  for (RowId r = 0; r < t.NumRows(); ++r) rows.push_back(t.RowValues(r));
  return rows;
}

TEST(TableTest, BasicShape) {
  Table t = MakeFigure1Candidate();
  EXPECT_EQ(t.name(), "T1");
  EXPECT_EQ(t.NumColumns(), 4u);
  EXPECT_EQ(t.NumRows(), 8u);
  EXPECT_EQ(t.NumLiveRows(), 8u);
  EXPECT_EQ(t.cell(1, 0), "Muhammad");
  EXPECT_EQ(t.cell(7, 3), "Actor");
}

TEST(TableTest, AppendRowRejectsWrongArity) {
  Table t("x");
  t.AddColumn("a");
  t.AddColumn("b");
  Result<RowId> r = t.AppendRow({"only-one"});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableTest, AddColumnBackfillsEmptyCells) {
  Table t = MakeFigure1Candidate();
  ColumnId c = t.AddColumn("Alter");
  EXPECT_EQ(t.NumColumns(), 5u);
  for (RowId r = 0; r < t.NumRows(); ++r) EXPECT_EQ(t.cell(r, c), "");
}

TEST(TableTest, AddColumnWithCells) {
  Table t("x");
  t.AddColumn("a");
  (void)t.AppendRow({"1"});
  (void)t.AppendRow({"2"});
  ASSERT_TRUE(t.AddColumnWithCells("b", {"x", "y"}).ok());
  EXPECT_EQ(t.cell(1, 1), "y");
  EXPECT_TRUE(t.AddColumnWithCells("c", {"too-few"}).IsInvalidArgument());
}

TEST(TableTest, DropColumnShiftsIds) {
  Table t = MakeFigure1Candidate();
  std::vector<std::vector<std::string>> expected = AllCells(t);
  for (std::vector<std::string>& row : expected) row.erase(row.begin() + 1);
  ASSERT_TRUE(t.DropColumn(1).ok());
  EXPECT_EQ(t.NumColumns(), 3u);
  EXPECT_EQ(t.column_name(1), "Land");
  EXPECT_EQ(t.cell(0, 1), "Germany");
  // Every other column keeps all of its cells, and rows still append.
  EXPECT_EQ(AllCells(t), expected);
  ASSERT_TRUE(t.AppendRow({"Nobody", "Nowhere", "Nothing"}).ok());
  EXPECT_EQ(t.cell(8, 2), "Nothing");
  EXPECT_TRUE(t.DropColumn(99).IsOutOfRange());
}

TEST(TableTest, DeleteRowIsTombstone) {
  Table t = MakeFigure1Candidate();
  ASSERT_TRUE(t.DeleteRow(2).ok());
  EXPECT_EQ(t.NumRows(), 8u);       // ids stay allocated
  EXPECT_EQ(t.NumLiveRows(), 7u);
  EXPECT_TRUE(t.IsRowDeleted(2));
  EXPECT_EQ(t.cell(2, 0), "Ansel");  // cells stay readable (§5.4 deletes)
  EXPECT_TRUE(t.DeleteRow(2).IsAlreadyExists());
  EXPECT_TRUE(t.DeleteRow(100).IsOutOfRange());
}

TEST(TableTest, SetCell) {
  Table t = MakeFigure1Candidate();
  ASSERT_TRUE(t.SetCell(0, 0, "helmut2").ok());
  EXPECT_EQ(t.cell(0, 0), "helmut2");
  EXPECT_TRUE(t.SetCell(100, 0, "x").IsOutOfRange());
  EXPECT_TRUE(t.SetCell(0, 100, "x").IsOutOfRange());
}

TEST(TableTest, SetCellGrowsAndShrinksAMiddleCell) {
  Table t = MakeFigure1Candidate();
  std::vector<std::vector<std::string>> expected = AllCells(t);
  const size_t payload = t.PayloadBytes();
  // Grow row 3's cell, then shrink it to empty and back: the cells after
  // it shift, the ones before it and the other columns stay put.
  const std::string longer = "Photographer, landscape and portrait";
  ASSERT_TRUE(t.SetCell(3, 3, longer).ok());
  expected[3][3] = longer;
  EXPECT_EQ(AllCells(t), expected);
  EXPECT_EQ(t.PayloadBytes(), payload - 12 + longer.size());
  ASSERT_TRUE(t.SetCell(3, 3, "").ok());
  expected[3][3] = "";
  EXPECT_EQ(AllCells(t), expected);
  EXPECT_EQ(t.PayloadBytes(), payload - 12);
  ASSERT_TRUE(t.SetCell(3, 3, "Dancer").ok());
  expected[3][3] = "Dancer";
  EXPECT_EQ(AllCells(t), expected);
  // The first and last rows are the edge cases of the offset shift.
  ASSERT_TRUE(t.SetCell(0, 0, "H").ok());
  ASSERT_TRUE(t.SetCell(7, 0, "Adam the Second").ok());
  expected[0][0] = "H";
  expected[7][0] = "Adam the Second";
  EXPECT_EQ(AllCells(t), expected);
}

TEST(TableTest, AppendRowAfterAppendEmptyRows) {
  Table t("x");
  t.AddColumn("a");
  t.AddColumn("b");
  t.AppendEmptyRows(3);
  Result<RowId> row = t.AppendRow({"left", "right"});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, 3u);
  t.AppendEmptyRows(2);
  ASSERT_TRUE(t.AppendRow({"", "last"}).ok());
  EXPECT_EQ(t.NumRows(), 7u);
  EXPECT_EQ(t.NumLiveRows(), 7u);
  for (RowId r : {0u, 1u, 2u, 4u, 5u}) {
    EXPECT_EQ(t.RowValues(r), (std::vector<std::string>{"", ""})) << r;
  }
  EXPECT_EQ(t.RowValues(3), (std::vector<std::string>{"left", "right"}));
  EXPECT_EQ(t.RowValues(6), (std::vector<std::string>{"", "last"}));
  // A column added afterwards backfills every row, including appended ones.
  t.AddColumn("c");
  for (RowId r = 0; r < t.NumRows(); ++r) EXPECT_EQ(t.cell(r, 2), "");
}

TEST(TableTest, EmptyCellsKeepTheirNeighbours) {
  Table t("x");
  t.AddColumn("a");
  t.AddColumn("b");
  (void)t.AppendRow({"", "x"});
  (void)t.AppendRow({"y", ""});
  (void)t.AppendRow({"", ""});
  ASSERT_TRUE(t.AddColumnWithCells("c", {"", "z", ""}).ok());
  EXPECT_EQ(t.RowValues(0), (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(t.RowValues(1), (std::vector<std::string>{"y", "", "z"}));
  EXPECT_EQ(t.RowValues(2), (std::vector<std::string>{"", "", ""}));
  EXPECT_EQ(t.PayloadBytes(), 3u);
}

TEST(TableTest, CellsMayHoldEmbeddedNulBytes) {
  const std::string nul_inside("a\0b", 3);
  const std::string nul_only(1, '\0');
  Table t("x");
  t.AddColumn("a");
  (void)t.AppendRow({nul_inside});
  (void)t.AppendRow({"plain"});
  ASSERT_TRUE(t.AddColumnWithCells("b", {nul_only, nul_inside}).ok());
  EXPECT_EQ(t.cell(0, 0), nul_inside);
  EXPECT_EQ(t.cell(0, 0).size(), 3u);
  EXPECT_EQ(t.cell(1, 1), nul_inside);
  ASSERT_TRUE(t.SetCell(1, 0, nul_only).ok());
  EXPECT_EQ(t.cell(1, 0), nul_only);
  EXPECT_EQ(t.cell(0, 0), nul_inside);
  EXPECT_EQ(t.PayloadBytes(), 3u + 1u + 1u + 3u);
}

TEST(TableTest, DecodeColumnFillsTheBufferAndAdvances) {
  const std::string nul_inside("a\0b", 3);
  std::string blob;
  PutLengthPrefixed(&blob, "alpha");
  PutLengthPrefixed(&blob, "");
  PutLengthPrefixed(&blob, nul_inside);
  blob += "tail";
  Table t("x");
  t.AddColumn("a");
  t.AddColumn("b");
  t.AppendEmptyRows(3);
  ASSERT_TRUE(t.SetCell(1, 1, "kept").ok());
  std::string_view data = blob;
  ASSERT_TRUE(t.DecodeColumn(0, &data).ok());
  EXPECT_EQ(data, "tail");
  EXPECT_EQ(t.cell(0, 0), "alpha");
  EXPECT_EQ(t.cell(1, 0), "");
  EXPECT_EQ(t.cell(2, 0), nul_inside);
  // The sibling column is left alone.
  EXPECT_EQ(t.cell(1, 1), "kept");
  // Decoding over a filled column replaces it.
  std::string again;
  for (int r = 0; r < 3; ++r) PutLengthPrefixed(&again, "r");
  data = again;
  ASSERT_TRUE(t.DecodeColumn(0, &data).ok());
  EXPECT_TRUE(data.empty());
  for (RowId r = 0; r < 3; ++r) EXPECT_EQ(t.cell(r, 0), "r");
}

TEST(TableTest, DecodeColumnRejectsATruncatedCell) {
  std::string blob;
  PutLengthPrefixed(&blob, "first");
  const size_t bad_at = blob.size();
  PutLengthPrefixed(&blob, "second");
  blob.pop_back();  // the last cell is one byte short
  Table t("x");
  t.AddColumn("a");
  t.AppendEmptyRows(2);
  std::string_view data = blob;
  const Status status = t.DecodeColumn(0, &data);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  // `data` is left at the bad cell, and the column holds empty cells.
  EXPECT_EQ(blob.size() - data.size(), bad_at);
  EXPECT_EQ(t.cell(0, 0), "");
  EXPECT_EQ(t.cell(1, 0), "");
  EXPECT_TRUE(t.DecodeColumn(1, &data).IsOutOfRange());
}

TEST(TableTest, FindColumn) {
  Table t = MakeFigure1Candidate();
  EXPECT_EQ(t.FindColumn("Land"), 2u);
  EXPECT_EQ(t.FindColumn("nope"), kInvalidColumnId);
}

TEST(TableTest, RowValues) {
  Table t = MakeFigure1Candidate();
  EXPECT_EQ(t.RowValues(4),
            (std::vector<std::string>{"Muhammad", "Ali", "US", "Boxer"}));
}

TEST(TableTest, ColumnCardinalityIsDistinctNormalized) {
  Table t("x");
  t.AddColumn("a");
  (void)t.AppendRow({"US"});
  (void)t.AppendRow({"us "});   // normalizes to the same value
  (void)t.AppendRow({"Germany"});
  EXPECT_EQ(t.ColumnCardinality(0), 2u);
  ASSERT_TRUE(t.DeleteRow(2).ok());
  EXPECT_EQ(t.ColumnCardinality(0), 1u);  // deleted rows excluded
}

TEST(TableTest, PayloadBytes) {
  Table t("x");
  t.AddColumn("a");
  (void)t.AppendRow({"abcd"});
  (void)t.AppendRow({"ef"});
  EXPECT_EQ(t.PayloadBytes(), 6u);
}

}  // namespace
}  // namespace mate
