#include "core/joinability.h"

#include <gtest/gtest.h>

#include <memory>
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

  Corpus corpus;
  std::unique_ptr<InvertedIndex> index;
};

TEST(VerifyComboInRowTest, FindsMatchAndMapping) {
  IndexedTable t(MakeCandidateT1());
  const auto lists = t.Lists({"muhammad", "lee", "us"});
  MappingAccumulator acc;
  uint64_t cmp = 0;
  VerifyScratch scratch;
  EXPECT_TRUE(VerifyComboInRow(lists, 0, 1, 0, kInvalidColumnId, 0, &acc,
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
  EXPECT_FALSE(VerifyComboInRow(lists, 0, 4, 0, kInvalidColumnId, 0, &acc,
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
  EXPECT_TRUE(VerifyComboInRow(lists, 0, 1, 0, /*fixed_column=*/2,
                               /*fixed_position=*/2, &acc, &cmp, &scratch));
  // ...but fixing it to column 3 ("Dancer") must fail.
  MappingAccumulator acc2;
  EXPECT_FALSE(VerifyComboInRow(lists, 0, 1, 0, /*fixed_column=*/3,
                                /*fixed_position=*/2, &acc2, &cmp, &scratch));
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
  EXPECT_FALSE(VerifyComboInRow(lists, 0, 0, 0, kInvalidColumnId, 0, &acc,
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
  EXPECT_TRUE(VerifyComboInRow(lists, 0, 0, 0, kInvalidColumnId, 0, &acc,
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
    bool verified = VerifyComboInRow(lists, 0, 0, 0, kInvalidColumnId, 0,
                                     &acc, &cmp, &scratch);
    EXPECT_EQ(verified, brute > 0) << trial;
    EXPECT_EQ(acc.MaxJoinability(), brute) << trial;
  }
}

}  // namespace
}  // namespace mate
