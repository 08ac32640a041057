#include "core/joinability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "index/index_builder.h"
#include "util/rng.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

// The paper's Figure 1 tables.
Table MakeQueryD() {
  Table d("d");
  d.AddColumn("F. Name");
  d.AddColumn("L. Name");
  d.AddColumn("Country");
  d.AddColumn("Salary");
  (void)d.AppendRow({"Muhammad", "Lee", "US", "60k"});
  (void)d.AppendRow({"Ansel", "Adams", "UK", "50k"});
  (void)d.AppendRow({"Ansel", "Adams", "US", "400k"});
  (void)d.AppendRow({"Muhammad", "Lee", "Germany", "90k"});
  (void)d.AppendRow({"Helmut", "Newton", "Germany", "300k"});
  return d;
}

Table MakeCandidateT1() {
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

TEST(ExtractKeyCombosTest, DistinctNormalizedCombos) {
  Table d = MakeQueryD();
  auto combos = ExtractKeyCombos(d, {0, 1, 2});
  // All 5 rows have distinct (F,L,Country) combos.
  EXPECT_EQ(combos.size(), 5u);
  EXPECT_EQ(combos[0], (std::vector<std::string>{"muhammad", "lee", "us"}));
}

TEST(ExtractKeyCombosTest, DeduplicatesAndSkipsEmpty) {
  Table t("q");
  t.AddColumn("a");
  t.AddColumn("b");
  (void)t.AppendRow({"X", "y"});
  (void)t.AppendRow({"x ", "Y"});   // duplicate after normalization
  (void)t.AppendRow({"", "z"});     // empty key value -> dropped
  (void)t.AppendRow({"w", "  "});   // empty after trim -> dropped
  auto combos = ExtractKeyCombos(t, {0, 1});
  ASSERT_EQ(combos.size(), 1u);
  EXPECT_EQ(combos[0], (std::vector<std::string>{"x", "y"}));
}

TEST(ExtractKeyCombosTest, SkipsDeletedRows) {
  Table t("q");
  t.AddColumn("a");
  (void)t.AppendRow({"one"});
  (void)t.AppendRow({"two"});
  ASSERT_TRUE(t.DeleteRow(0).ok());
  auto combos = ExtractKeyCombos(t, {0});
  ASSERT_EQ(combos.size(), 1u);
  EXPECT_EQ(combos[0][0], "two");
}

// Byte 0x1F (the ASCII unit separator) survives normalization, so a
// value may hold it. The two combos below would spell the same key if
// their values were joined with that byte.
Table SeparatorRows(const std::vector<std::vector<std::string>>& rows) {
  Table t("sep");
  t.AddColumn("a");
  t.AddColumn("b");
  for (const auto& row : rows) (void)t.AppendRow(std::vector<std::string>(row));
  return t;
}

TEST(ExtractKeyCombosTest, ValuesHoldingTheSeparatorByteStayDistinct) {
  const Table t = SeparatorRows({{"a\x1F" "b", "c"}, {"a", "b\x1F" "c"}});
  const auto combos = ExtractKeyCombos(t, {0, 1});
  ASSERT_EQ(combos.size(), 2u);
  EXPECT_EQ(combos[0], (std::vector<std::string>{"a\x1F" "b", "c"}));
  EXPECT_EQ(combos[1], (std::vector<std::string>{"a", "b\x1F" "c"}));
}

TEST(BruteForceTest, SeparatorByteInsideValuesKeepsCombosApart) {
  const Table both = SeparatorRows({{"a\x1F" "b", "c"}, {"a", "b\x1F" "c"}});
  const BruteForceResult r = BruteForceJoinability(both, {0, 1}, both);
  EXPECT_EQ(r.joinability, 2);
  EXPECT_EQ(r.best_mapping, (std::vector<ColumnId>{0, 1}));
}

TEST(BruteForceTest, SeparatorByteInsideValuesForgesNoMatch) {
  const Table query = SeparatorRows({{"a\x1F" "b", "c"}});
  const Table candidate = SeparatorRows({{"a", "b\x1F" "c"}});
  EXPECT_EQ(BruteForceJoinability(query, {0, 1}, candidate).joinability, 0);
}

TEST(BruteForceTest, Figure1GivesJoinabilityFive) {
  // §2: the best mapping (F->Vorname, L->Nachname, Country->Land) yields 5.
  BruteForceResult result =
      BruteForceJoinability(MakeQueryD(), {0, 1, 2}, MakeCandidateT1());
  EXPECT_EQ(result.joinability, 5);
  EXPECT_EQ(result.best_mapping, (std::vector<ColumnId>{0, 1, 2}));
}

TEST(BruteForceTest, SwappedMappingGivesZero) {
  // §2: mapping F->Nachname, L->Vorname, Country->Land yields 0 — so a
  // query with swapped columns must still find 5 via the swapped mapping.
  Table d = MakeQueryD();
  BruteForceResult result =
      BruteForceJoinability(d, {1, 0, 2}, MakeCandidateT1());
  EXPECT_EQ(result.joinability, 5);
  EXPECT_EQ(result.best_mapping, (std::vector<ColumnId>{1, 0, 2}));
}

TEST(BruteForceTest, KeyWiderThanCandidateIsZero) {
  Table narrow("n");
  narrow.AddColumn("only");
  (void)narrow.AppendRow({"muhammad"});
  BruteForceResult result =
      BruteForceJoinability(MakeQueryD(), {0, 1, 2}, narrow);
  EXPECT_EQ(result.joinability, 0);
}

TEST(BruteForceTest, SetSemanticsCountDistinctCombos) {
  Table q("q");
  q.AddColumn("a");
  q.AddColumn("b");
  (void)q.AppendRow({"x", "y"});
  Table cand("c");
  cand.AddColumn("c1");
  cand.AddColumn("c2");
  // The same combo appears in 3 candidate rows: still j = 1 (Eq. 1 is a set
  // intersection of projections).
  (void)cand.AppendRow({"x", "y"});
  (void)cand.AppendRow({"x", "y"});
  (void)cand.AppendRow({"x", "y"});
  EXPECT_EQ(BruteForceJoinability(q, {0, 1}, cand).joinability, 1);
}

TEST(MappingAccumulatorTest, MaxOverMappings) {
  MappingAccumulator acc;
  acc.AddMatch({0, 1}, 0);
  acc.AddMatch({0, 1}, 1);
  acc.AddMatch({0, 1}, 1);  // duplicate combo: still one
  acc.AddMatch({2, 3}, 5);
  EXPECT_EQ(acc.MaxJoinability(), 2);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 1}));
  acc.Clear();
  EXPECT_EQ(acc.MaxJoinability(), 0);
  EXPECT_TRUE(acc.BestMapping().empty());
}

TEST(MappingAccumulatorTest, TiesKeepTheSmallestMapping) {
  MappingAccumulator acc;
  acc.AddMatch({2, 3}, 1);
  acc.AddMatch({0, 1}, 1);
  acc.AddMatch({2, 3}, 2);
  acc.AddMatch({0, 1}, 2);
  acc.AddMatch({2, 3}, 1);  // a repeat, not next to its first record
  EXPECT_EQ(acc.MaxJoinability(), 2);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 1}));
  acc.AddMatch({2, 3}, 7);  // a read settles; a later match unsettles
  EXPECT_EQ(acc.MaxJoinability(), 3);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{2, 3}));
}

TEST(MappingAccumulatorTest, AgreesWithASetPerMapping) {
  // Random match streams against the definition: per mapping, the set of
  // its combos; the best is the largest set, the smallest mapping on ties.
  Rng rng(77);
  MappingAccumulator acc;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t m = 1 + rng.Uniform(4);
    const size_t columns = m + rng.Uniform(3);
    const size_t matches = rng.Uniform(200);
    std::map<std::vector<ColumnId>, std::set<uint32_t>> expected;
    acc.Clear();
    for (size_t k = 0; k < matches; ++k) {
      std::vector<ColumnId> mapping(m);
      for (ColumnId& c : mapping) {
        c = static_cast<ColumnId>(rng.Uniform(columns));
      }
      const auto combo = static_cast<uint32_t>(rng.Uniform(12));
      acc.AddMatch(mapping, combo);
      expected[mapping].insert(combo);
    }
    int64_t best = 0;
    std::vector<ColumnId> best_mapping;
    for (const auto& [mapping, combos] : expected) {
      if (static_cast<int64_t>(combos.size()) > best) {
        best = static_cast<int64_t>(combos.size());
        best_mapping = mapping;
      }
    }
    EXPECT_EQ(acc.MaxJoinability(), best) << trial;
    EXPECT_EQ(acc.BestMapping(), best_mapping) << trial;
  }
}

// A candidate table indexed as table 0 of a one-table corpus: the verifier
// answers from its posting lists, never from its cells.
struct IndexedTable {
  explicit IndexedTable(Table table) {
    corpus.AddTable(std::move(table));
    auto built = BuildIndex(corpus, IndexBuildOptions{});
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    index = std::move(*built);
  }

  // The combo's posting lists; they must outlive every read of the
  // accumulator they are verified into.
  ComboPostings Lists(const std::vector<std::string>& combo) const {
    return std::move(ResolveComboPostings(*index, {combo}).front());
  }

  // The entry of cell (row, column) in `value`'s posting list, the binding
  // a caller reading that list would pass; null when the cell is absent.
  const PostingEntry* Entry(const std::string& value, RowId row,
                            ColumnId column) const {
    const PostingSpan list = index->Lookup(value);
    const PostingEntry* e =
        std::find(list.begin(), list.end(), PostingEntry{0, column, row});
    return e != list.end() ? e : nullptr;
  }

  Corpus corpus;
  std::unique_ptr<InvertedIndex> index;
};

TEST(VerifyComboInRowTest, FindsMatchAndMapping) {
  IndexedTable t(MakeCandidateT1());
  const auto lists = t.Lists({"muhammad", "lee", "us"});
  MappingAccumulator acc;
  uint64_t cmp = 0;
  VerifyScratch scratch;
  EXPECT_TRUE(VerifyComboInRow(lists, 0, 1, 0, /*fixed=*/nullptr, 0, &acc,
                               &cmp, &scratch));
  EXPECT_EQ(acc.MaxJoinability(), 1);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 1, 2}));
  EXPECT_GT(cmp, 0u);
}

TEST(VerifyComboInRowTest, RejectsPartialMatch) {
  IndexedTable t(MakeCandidateT1());
  const auto lists = t.Lists({"muhammad", "lee", "us"});
  MappingAccumulator acc;
  uint64_t cmp = 0;
  VerifyScratch scratch;
  // Row 4 is (Muhammad, Ali, US, Boxer): "lee" missing.
  EXPECT_FALSE(VerifyComboInRow(lists, 0, 4, 0, /*fixed=*/nullptr, 0, &acc,
                                &cmp, &scratch));
  EXPECT_EQ(acc.MaxJoinability(), 0);
}

TEST(VerifyComboInRowTest, HonorsFixedColumn) {
  IndexedTable t(MakeCandidateT1());
  const auto lists = t.Lists({"muhammad", "lee", "us"});
  MappingAccumulator acc;
  uint64_t cmp = 0;
  VerifyScratch scratch;
  // Fixing "us" (combo position 2) to column 2 works for row 1...
  const PostingEntry* us = t.Entry("us", 1, 2);
  ASSERT_NE(us, nullptr);
  EXPECT_TRUE(VerifyComboInRow(lists, 0, 1, 0, /*fixed=*/us,
                               /*fixed_position=*/2, &acc, &cmp, &scratch));
  // ...but fixing it to column 3 ("Dancer") must fail.
  const PostingEntry* dancer = t.Entry("dancer", 1, 3);
  ASSERT_NE(dancer, nullptr);
  MappingAccumulator acc2;
  EXPECT_FALSE(VerifyComboInRow(lists, 0, 1, 0, /*fixed=*/dancer,
                                /*fixed_position=*/2, &acc2, &cmp, &scratch));
}

TEST(VerifyComboInRowTest, BindingMustNameTheVerifiedRow) {
  IndexedTable t(MakeCandidateT1());
  const auto lists = t.Lists({"muhammad", "lee", "us"});
  uint64_t cmp = 0;
  VerifyScratch scratch;
  // Rows 1 and 4 both hold "us" in column 2, and row 1 holds the combo.
  // A binding to row 4's "us" entry lies in the right list but names
  // another row, so it cannot verify row 1.
  const PostingEntry* row4 = t.Entry("us", 4, 2);
  ASSERT_NE(row4, nullptr);
  MappingAccumulator acc;
  EXPECT_FALSE(VerifyComboInRow(lists, 0, 1, 0, /*fixed=*/row4,
                                /*fixed_position=*/2, &acc, &cmp, &scratch));
  // The binding is checked at its own position only: row 1's "muhammad"
  // entry bound at position 2 ("us") is outside that position's list.
  const PostingEntry* muhammad = t.Entry("muhammad", 1, 0);
  ASSERT_NE(muhammad, nullptr);
  EXPECT_FALSE(VerifyComboInRow(lists, 0, 1, 0, /*fixed=*/muhammad,
                                /*fixed_position=*/2, &acc, &cmp, &scratch));
  EXPECT_TRUE(VerifyComboInRow(lists, 0, 1, 0, /*fixed=*/muhammad,
                               /*fixed_position=*/0, &acc, &cmp, &scratch));
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 1, 2}));
}

TEST(VerifyComboInRowTest, RequiresDistinctColumns) {
  Table table("t");
  table.AddColumn("a");
  table.AddColumn("b");
  (void)table.AppendRow({"x", "z"});
  IndexedTable t(std::move(table));
  const auto lists = t.Lists({"x", "x"});
  MappingAccumulator acc;
  uint64_t cmp = 0;
  VerifyScratch scratch;
  // Both key values are "x" but the row has only one "x" column: the two
  // positions cannot map to distinct columns.
  EXPECT_FALSE(VerifyComboInRow(lists, 0, 0, 0, /*fixed=*/nullptr, 0, &acc,
                                &cmp, &scratch));
}

TEST(VerifyComboInRowTest, EnumeratesAlternativeMappings) {
  Table table("t");
  table.AddColumn("a");
  table.AddColumn("b");
  table.AddColumn("c");
  (void)table.AppendRow({"x", "x", "y"});
  IndexedTable t(std::move(table));
  const auto lists = t.Lists({"x", "y"});
  MappingAccumulator acc;
  uint64_t cmp = 0;
  VerifyScratch scratch;
  // "x" can map to column 0 or 1: both assignments must be recorded.
  EXPECT_TRUE(VerifyComboInRow(lists, 0, 0, 0, /*fixed=*/nullptr, 0, &acc,
                               &cmp, &scratch));
  acc.AddMatch({0, 2}, 1);  // a second combo under one of the mappings
  EXPECT_EQ(acc.MaxJoinability(), 2);
}

TEST(VerifyComboInRowTest, RandomAgreementWithBruteForce) {
  // Property: for a 1-row candidate, VerifyComboInRow agrees with
  // BruteForceJoinability on whether j > 0.
  Rng rng(31);
  VerifyScratch scratch;  // reused across trials of every shape
  for (int trial = 0; trial < 300; ++trial) {
    size_t cols = 2 + rng.Uniform(4);
    Table cand("c");
    for (size_t c = 0; c < cols; ++c) cand.AddColumn("c" + std::to_string(c));
    std::vector<std::string> row;
    for (size_t c = 0; c < cols; ++c) {
      row.push_back(std::string(1, static_cast<char>('a' + rng.Uniform(4))));
    }
    (void)cand.AppendRow(std::vector<std::string>(row));

    size_t m = 1 + rng.Uniform(2);
    Table query("q");
    std::vector<ColumnId> key_cols;
    std::vector<std::string> combo;
    for (size_t i = 0; i < m; ++i) {
      query.AddColumn("k" + std::to_string(i));
      key_cols.push_back(static_cast<ColumnId>(i));
      combo.push_back(std::string(1, static_cast<char>('a' + rng.Uniform(4))));
    }
    (void)query.AppendRow(std::vector<std::string>(combo));

    int64_t brute = BruteForceJoinability(query, key_cols, cand).joinability;
    IndexedTable indexed(std::move(cand));
    const auto lists = indexed.Lists(combo);
    MappingAccumulator acc;
    uint64_t cmp = 0;
    bool verified = VerifyComboInRow(lists, 0, 0, 0, /*fixed=*/nullptr, 0,
                                     &acc, &cmp, &scratch);
    EXPECT_EQ(verified, brute > 0) << trial;
    EXPECT_EQ(acc.MaxJoinability(), brute) << trial;
  }
}

}  // namespace
}  // namespace mate
