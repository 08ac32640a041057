// §5.4 maintenance: after any sequence of edits, the incrementally updated
// index must be equivalent to an index rebuilt from scratch.

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "index/inverted_index.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

std::unique_ptr<InvertedIndex> Build(const Corpus& corpus) {
  IndexBuildOptions options;
  options.use_corpus_stats = false;  // keep hash params edit-independent
  auto index = BuildIndex(corpus, options);
  EXPECT_TRUE(index.ok());
  return std::move(*index);
}

// Compares postings and super keys of `updated` against a fresh rebuild,
// the super keys of deleted rows (zero in a rebuild) included.
void ExpectEquivalentToRebuild(const Corpus& corpus,
                               const InvertedIndex& updated) {
  std::unique_ptr<InvertedIndex> fresh = Build(corpus);
  ASSERT_EQ(updated.NumPostingEntries(), fresh->NumPostingEntries());
  // Every live cell must resolve identically in both indexes.
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    const Table& table = corpus.table(t);
    for (RowId r = 0; r < table.NumRows(); ++r) {
      EXPECT_EQ(updated.superkeys().Get(t, r), fresh->superkeys().Get(t, r))
          << "t=" << t << " r=" << r;
      if (table.IsRowDeleted(r)) continue;
      for (ColumnId c = 0; c < table.NumColumns(); ++c) {
        std::string norm = NormalizeValue(table.cell(r, c));
        const PostingSpan a = updated.Lookup(norm);
        const PostingSpan b = fresh->Lookup(norm);
        ASSERT_FALSE(a.empty()) << norm;
        ASSERT_FALSE(b.empty()) << norm;
        EXPECT_EQ(a, b) << norm;
      }
    }
  }
}

Corpus SmallCorpus() {
  Corpus corpus;
  Table t("base");
  t.AddColumn("a");
  t.AddColumn("b");
  t.AddColumn("c");
  (void)t.AppendRow({"red", "circle", "small"});
  (void)t.AppendRow({"blue", "square", "large"});
  (void)t.AppendRow({"red", "triangle", "medium"});
  corpus.AddTable(std::move(t));
  return corpus;
}

TEST(IndexUpdatesTest, InsertTable) {
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);
  Table extra("extra");
  extra.AddColumn("x");
  (void)extra.AppendRow({"red"});
  (void)extra.AppendRow({"green"});
  TableId t = corpus.AddTable(std::move(extra));
  ASSERT_TRUE(index->InsertTable(corpus, t).ok());
  ExpectEquivalentToRebuild(corpus, *index);
  EXPECT_EQ(index->Lookup("red").size(), 3u);
}

TEST(IndexUpdatesTest, InsertRow) {
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);
  auto row = corpus.mutable_table(0)->AppendRow({"teal", "hexagon", "tiny"});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(index->InsertRow(corpus, 0, *row).ok());
  ExpectEquivalentToRebuild(corpus, *index);
}

TEST(IndexUpdatesTest, AddAppendedColumn) {
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);
  BitVector key_before = index->superkeys().Get(0, 0);
  ASSERT_TRUE(corpus.mutable_table(0)
                  ->AddColumnWithCells("d", {"alpha", "beta", "gamma"})
                  .ok());
  ASSERT_TRUE(index->AddAppendedColumn(corpus, 0).ok());
  ExpectEquivalentToRebuild(corpus, *index);
  // §5.4: the new column ORs into the super key, so the old key is a subset.
  EXPECT_TRUE(key_before.IsSubsetOf(index->superkeys().Get(0, 0)));
  EXPECT_EQ(index->Lookup("alpha").size(), 1u);
}

TEST(IndexUpdatesTest, UpdateCellRehashesRow) {
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);
  std::string old_norm = NormalizeValue(corpus.table(0).cell(0, 1));
  ASSERT_TRUE(corpus.mutable_table(0)->SetCell(0, 1, "ellipse").ok());
  ASSERT_TRUE(index->UpdateCell(corpus, 0, 0, 1, old_norm).ok());
  ExpectEquivalentToRebuild(corpus, *index);
  EXPECT_TRUE(index->Lookup("circle").empty());
  ASSERT_FALSE(index->Lookup("ellipse").empty());
  // The stale value's signature must no longer be guaranteed-masked: the
  // rehash removed its bits (unless shared with live values).
  BitVector new_sig = index->hash().HashValue("ellipse");
  EXPECT_TRUE(index->superkeys().Covers(0, 0, new_sig));
}

TEST(IndexUpdatesTest, DeleteRowRemovesPostings) {
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);
  ASSERT_TRUE(index->DeleteRow(corpus, 0, 0).ok());
  ASSERT_TRUE(corpus.mutable_table(0)->DeleteRow(0).ok());
  ExpectEquivalentToRebuild(corpus, *index);
  ASSERT_FALSE(index->Lookup("red").empty());  // still in row 2
  EXPECT_EQ(index->Lookup("red").size(), 1u);
  EXPECT_TRUE(index->Lookup("circle").empty());
}

TEST(IndexUpdatesTest, UpdateCellLeavesADeletedRowUnindexed) {
  // Deleting the row from the index and tombstoning it in the table, in
  // either order, then updating one of its cells must leave what a rebuild
  // has: no posting for the row and a zero super key.
  for (bool index_first : {true, false}) {
    SCOPED_TRACE(index_first ? "index delete first" : "tombstone first");
    Corpus corpus = SmallCorpus();
    auto index = Build(corpus);
    Table* table = corpus.mutable_table(0);
    if (index_first) {
      ASSERT_TRUE(index->DeleteRow(corpus, 0, 1).ok());
    }
    ASSERT_TRUE(table->DeleteRow(1).ok());
    if (!index_first) {
      ASSERT_TRUE(index->DeleteRow(corpus, 0, 1).ok());
    }
    const std::string old_norm = NormalizeValue(table->cell(1, 0));
    ASSERT_TRUE(table->SetCell(1, 0, "zz").ok());
    ASSERT_TRUE(index->UpdateCell(corpus, 0, 1, 0, old_norm).ok());
    EXPECT_TRUE(index->Lookup("zz").empty());
    EXPECT_TRUE(index->superkeys().Get(0, 1).IsZero());
    ExpectEquivalentToRebuild(corpus, *index);
  }
}

TEST(IndexUpdatesTest, DeleteTableRemovesAllPostings) {
  Corpus corpus = SmallCorpus();
  Table other("other");
  other.AddColumn("x");
  (void)other.AppendRow({"red"});
  corpus.AddTable(std::move(other));
  auto index = Build(corpus);
  ASSERT_TRUE(index->DeleteTable(corpus, 0).ok());
  ASSERT_FALSE(index->Lookup("red").empty());
  EXPECT_EQ(index->Lookup("red").size(), 1u);
  EXPECT_EQ(index->Lookup("red").front().table_id, 1u);
  EXPECT_TRUE(index->Lookup("square").empty());
}

TEST(IndexUpdatesTest, DropColumnReKeysAndRehashes) {
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);
  // Capture the dropped column's cells, then edit corpus and index.
  std::vector<std::string> removed;
  for (RowId r = 0; r < corpus.table(0).NumRows(); ++r) {
    removed.emplace_back(corpus.table(0).cell(r, 1));
  }
  ASSERT_TRUE(corpus.mutable_table(0)->DropColumn(1).ok());
  ASSERT_TRUE(index->DropColumn(corpus, 0, 1, removed).ok());
  ExpectEquivalentToRebuild(corpus, *index);
  EXPECT_TRUE(index->Lookup("circle").empty());
  // "small" moved from column 2 to column 1.
  ASSERT_FALSE(index->Lookup("small").empty());
  EXPECT_EQ(index->Lookup("small").front().column_id, 1u);
}

TEST(IndexUpdatesTest, RandomizedEditScriptMatchesRebuild) {
  Rng rng(4242);
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);

  for (int step = 0; step < 120; ++step) {
    int op = static_cast<int>(rng.Uniform(5));
    TableId t = static_cast<TableId>(rng.Uniform(corpus.NumTables()));
    Table* table = corpus.mutable_table(t);
    switch (op) {
      case 0: {  // insert row
        std::vector<std::string> cells;
        for (ColumnId c = 0; c < table->NumColumns(); ++c) {
          cells.push_back(GenerateWord(&rng, 2, 8));
        }
        auto r = table->AppendRow(std::move(cells));
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(index->InsertRow(corpus, t, *r).ok());
        break;
      }
      case 1: {  // update cell
        if (table->NumRows() == 0 || table->NumColumns() == 0) break;
        // Deleted rows too: the update must leave them unindexed.
        RowId r = static_cast<RowId>(rng.Uniform(table->NumRows()));
        ColumnId c = static_cast<ColumnId>(rng.Uniform(table->NumColumns()));
        std::string old_norm = NormalizeValue(table->cell(r, c));
        ASSERT_TRUE(table->SetCell(r, c, GenerateWord(&rng, 2, 8)).ok());
        ASSERT_TRUE(index->UpdateCell(corpus, t, r, c, old_norm).ok());
        break;
      }
      case 2: {  // delete row
        if (table->NumLiveRows() <= 1) break;
        RowId r = static_cast<RowId>(rng.Uniform(table->NumRows()));
        if (table->IsRowDeleted(r)) break;
        ASSERT_TRUE(index->DeleteRow(corpus, t, r).ok());
        ASSERT_TRUE(table->DeleteRow(r).ok());
        break;
      }
      case 3: {  // add column
        if (table->NumColumns() >= 6) break;
        std::vector<std::string> cells;
        for (RowId r = 0; r < table->NumRows(); ++r) {
          cells.push_back(GenerateWord(&rng, 2, 8));
        }
        ASSERT_TRUE(table
                        ->AddColumnWithCells(
                            "col" + std::to_string(table->NumColumns()),
                            std::move(cells))
                        .ok());
        ASSERT_TRUE(index->AddAppendedColumn(corpus, t).ok());
        break;
      }
      case 4: {  // new table
        if (corpus.NumTables() >= 5) break;
        Table fresh("t" + std::to_string(corpus.NumTables()));
        fresh.AddColumn("a");
        fresh.AddColumn("b");
        (void)fresh.AppendRow({GenerateWord(&rng, 2, 8),
                               GenerateWord(&rng, 2, 8)});
        TableId added = corpus.AddTable(std::move(fresh));
        ASSERT_TRUE(index->InsertTable(corpus, added).ok());
        break;
      }
    }
  }
  ExpectEquivalentToRebuild(corpus, *index);
}

TEST(IndexUpdatesTest, ResetHashAfterEditsMatchesRebuild) {
  // Re-keying reads the lists §5.4 edits moved out of the arena too.
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);
  std::string old_norm = NormalizeValue(corpus.table(0).cell(1, 0));
  ASSERT_TRUE(corpus.mutable_table(0)->SetCell(1, 0, "violet").ok());
  ASSERT_TRUE(index->UpdateCell(corpus, 0, 1, 0, old_norm).ok());
  auto row = corpus.mutable_table(0)->AppendRow({"red", "oval", "tiny"});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(index->InsertRow(corpus, 0, *row).ok());
  ASSERT_TRUE(index->ResetHash(MakeRowHash(HashFamily::kXash, 128, nullptr))
                  .ok());
  ExpectEquivalentToRebuild(corpus, *index);
}

TEST(IndexUpdatesTest, OutOfRangeEditsFail) {
  Corpus corpus = SmallCorpus();
  auto index = Build(corpus);
  EXPECT_TRUE(index->InsertTable(corpus, 99).IsOutOfRange());
  EXPECT_TRUE(index->InsertRow(corpus, 0, 99).IsOutOfRange());
  EXPECT_TRUE(index->DeleteRow(corpus, 0, 99).IsOutOfRange());
  EXPECT_TRUE(index->UpdateCell(corpus, 0, 99, 0, "x").IsOutOfRange());
  EXPECT_TRUE(index->DropColumn(corpus, 0, 0, {}).IsInvalidArgument());
}

}  // namespace
}  // namespace mate
