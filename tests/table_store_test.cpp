// TableStore (storage/table_store.h): lazy per-table materialization under
// a corpus. Shape must be fully answerable with zero cells parsed, Get must
// materialize each table exactly once under concurrency (TSan guards the
// once-latch discipline), and a corrupt blob must latch a sticky status
// while leaving a shape-complete stub.

#include "storage/table_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/corpus.h"
#include "storage/corpus_io.h"

namespace mate {
namespace {

Corpus MakeCorpus(size_t num_tables, size_t rows_per_table) {
  Corpus corpus;
  for (size_t t = 0; t < num_tables; ++t) {
    Table table("table_" + std::to_string(t));
    table.AddColumn("a");
    table.AddColumn("b");
    table.AddColumn("c");
    for (size_t r = 0; r < rows_per_table; ++r) {
      (void)table.AppendRow({"t" + std::to_string(t) + "r" +
                                 std::to_string(r),
                             "x" + std::to_string(r), "y"});
    }
    if (rows_per_table > 1) EXPECT_TRUE(table.DeleteRow(0).ok());
    corpus.AddTable(std::move(table));
  }
  return corpus;
}

// Round-trips `corpus` through a corpus file and opens it lazily.
Corpus OpenLazyCopy(const Corpus& corpus, const std::string& tag) {
  const std::string path =
      testing::TempDir() + "/mate_table_store_" + tag + ".corpus";
  EXPECT_TRUE(SaveCorpus(corpus, corpus.ComputeStats(), path).ok());
  auto lazy = OpenCorpusLazy(path);
  EXPECT_TRUE(lazy.ok()) << lazy.status().ToString();
  std::remove(path.c_str());  // already mmap'd; unlink is fine on POSIX
  return std::move(*lazy);
}

TEST(TableStoreTest, ShapeIsServedWithoutMaterialization) {
  Corpus original = MakeCorpus(6, 4);
  Corpus lazy = OpenLazyCopy(original, "shape");
  ASSERT_EQ(lazy.NumTables(), original.NumTables());
  EXPECT_EQ(lazy.tables_resident(), 0u);
  EXPECT_FALSE(lazy.fully_resident());
  for (TableId t = 0; t < lazy.NumTables(); ++t) {
    EXPECT_EQ(lazy.table_name(t), original.table_name(t));
    EXPECT_EQ(lazy.table_num_columns(t), original.table_num_columns(t));
    EXPECT_EQ(lazy.table_num_rows(t), original.table_num_rows(t));
    EXPECT_EQ(lazy.table_num_live_rows(t), original.table_num_live_rows(t));
    for (ColumnId c = 0; c < lazy.table_num_columns(t); ++c) {
      EXPECT_EQ(lazy.table_column_name(t, c), original.table_column_name(t, c));
    }
    EXPECT_FALSE(lazy.table_resident(t));
  }
  // Shape questions answered; still nothing materialized.
  EXPECT_EQ(lazy.tables_resident(), 0u);
  EXPECT_TRUE(lazy.load_status().ok());
}

TEST(TableStoreTest, GetMaterializesExactlyTheTouchedTable) {
  Corpus original = MakeCorpus(5, 3);
  Corpus lazy = OpenLazyCopy(original, "touch");
  const Table& t2 = lazy.table(2);
  EXPECT_EQ(t2.cell(1, 0), original.table(2).cell(1, 0));
  EXPECT_TRUE(lazy.table_resident(2));
  EXPECT_EQ(lazy.tables_resident(), 1u);
  EXPECT_FALSE(lazy.fully_resident());
  // Repeated access parses nothing new.
  EXPECT_EQ(&lazy.table(2), &t2);
  EXPECT_EQ(lazy.tables_resident(), 1u);
}

TEST(TableStoreTest, MaterializeAllMakesTheCorpusEqualToEager) {
  Corpus original = MakeCorpus(4, 6);
  Corpus lazy = OpenLazyCopy(original, "all");
  ASSERT_TRUE(lazy.MaterializeAll().ok());
  EXPECT_TRUE(lazy.fully_resident());
  EXPECT_EQ(lazy.tables_resident(), lazy.NumTables());
  EXPECT_TRUE(CorporaEqual(original, lazy));
  // Idempotent, and Get keeps working after the backing was released.
  ASSERT_TRUE(lazy.MaterializeAll().ok());
  EXPECT_EQ(lazy.table(0).cell(1, 1), original.table(0).cell(1, 1));
}

TEST(TableStoreTest, ConcurrentGetsMaterializeOnceAndRaceFree) {
  Corpus original = MakeCorpus(16, 8);
  Corpus lazy = OpenLazyCopy(original, "race");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&lazy, w] {
      // Every thread touches every table, starting at a different point so
      // same-table and different-table races both happen.
      const size_t n = lazy.NumTables();
      for (size_t i = 0; i < n; ++i) {
        const TableId t = static_cast<TableId>((i + w * 3) % n);
        const Table& table = lazy.table(t);
        EXPECT_EQ(table.NumColumns(), 3u);
        EXPECT_EQ(table.cell(1, 1), "x1");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(lazy.fully_resident());
  EXPECT_TRUE(CorporaEqual(original, lazy));
}

TEST(TableStoreTest, MutableAccessMaterializesAndShapeTracksEdits) {
  Corpus original = MakeCorpus(3, 4);
  Corpus lazy = OpenLazyCopy(original, "mutate");
  Table* t1 = lazy.mutable_table(1);
  EXPECT_TRUE(lazy.table_resident(1));
  t1->AddColumn("d");
  ASSERT_TRUE(t1->AppendRow({"p", "q", "r", "s"}).ok());
  // Shape accessors must reflect the live table, not the stale header.
  EXPECT_EQ(lazy.table_num_columns(1), 4u);
  EXPECT_EQ(lazy.table_num_rows(1), original.table_num_rows(1) + 1);
  EXPECT_EQ(lazy.table_column_name(1, 3), "d");
  // Untouched tables still answer from the header.
  EXPECT_FALSE(lazy.table_resident(2));
  EXPECT_EQ(lazy.table_num_columns(2), 3u);
}

TEST(TableStoreTest, AddTableAfterLazyOpenIsResident) {
  Corpus lazy = OpenLazyCopy(MakeCorpus(2, 2), "append");
  Table extra("extra");
  extra.AddColumn("z");
  (void)extra.AppendRow({"42"});
  const TableId id = lazy.AddTable(std::move(extra));
  EXPECT_TRUE(lazy.table_resident(id));
  EXPECT_EQ(lazy.table_name(id), "extra");
  EXPECT_EQ(lazy.table(id).cell(0, 0), "42");
  EXPECT_EQ(lazy.tables_resident(), 1u);  // the two lazy tables stay cold
  EXPECT_FALSE(lazy.fully_resident());
}

TEST(TableStoreTest, EmptyCorpusIsTriviallyResident) {
  Corpus lazy = OpenLazyCopy(Corpus{}, "empty");
  EXPECT_EQ(lazy.NumTables(), 0u);
  EXPECT_TRUE(lazy.fully_resident());
  EXPECT_TRUE(lazy.MaterializeAll().ok());
}

// ---- residency budget: LRU eviction -----------------------------------

TEST(TableStoreTest, BudgetEvictsOldestTouchFirstAndRetouchReparses) {
  Corpus original = MakeCorpus(6, 8);
  Corpus lazy = OpenLazyCopy(original, "lru");
  for (TableId t = 0; t < 4; ++t) (void)lazy.table(t);
  const uint64_t keep_two =
      lazy.table_resident_bytes(2) + lazy.table_resident_bytes(3);
  lazy.SetBudget(keep_two);
  lazy.EvictToBudget();
  // Tables 0 and 1 carry the oldest touch stamps; 2 and 3 survive.
  EXPECT_FALSE(lazy.table_resident(0));
  EXPECT_FALSE(lazy.table_resident(1));
  EXPECT_TRUE(lazy.table_resident(2));
  EXPECT_TRUE(lazy.table_resident(3));
  ResidencyStats stats = lazy.residency();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_bytes, keep_two);
  // Re-touching an evicted table re-parses it bit-identically and counts
  // the rematerialization.
  const uint64_t parsed_before = lazy.residency().bytes_materialized;
  const Table& t0 = lazy.table(0);
  EXPECT_GT(lazy.residency().bytes_materialized, parsed_before);
  EXPECT_TRUE(TablesEqual(original.table(0), t0));
  EXPECT_EQ(lazy.residency().rematerializations, 1u);
}

TEST(TableStoreTest, TinyBudgetThrashStaysCorrect) {
  Corpus original = MakeCorpus(5, 6);
  Corpus lazy = OpenLazyCopy(original, "thrash");
  lazy.SetBudget(1);  // smaller than any table: every idle point evicts all
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (TableId t = 0; t < lazy.NumTables(); ++t) {
      EXPECT_TRUE(TablesEqual(original.table(t), lazy.table(t)));
      lazy.EvictToBudget();  // idle point between "queries"
      EXPECT_EQ(lazy.residency().resident_bytes, 0u);
    }
  }
  const ResidencyStats stats = lazy.residency();
  EXPECT_EQ(stats.evictions, 3u * lazy.NumTables());
  EXPECT_EQ(stats.rematerializations, 2u * lazy.NumTables());
  EXPECT_TRUE(lazy.load_status().ok());
}

TEST(TableStoreTest, PinnedTableSurvivesEviction) {
  Corpus original = MakeCorpus(4, 6);
  Corpus lazy = OpenLazyCopy(original, "pin");
  // Armed before the touches: an unbudgeted store releases its backing once
  // fully materialized, after which eviction is (correctly) impossible.
  lazy.SetBudget(1);
  for (TableId t = 0; t < lazy.NumTables(); ++t) (void)lazy.table(t);
  // Mutable() pins: a caller holding a Table* must never have it evicted
  // (and re-parsing would resurrect pre-edit cells anyway).
  Table* pinned = lazy.mutable_table(1);
  lazy.EvictToBudget();
  EXPECT_TRUE(lazy.table_resident(1));
  EXPECT_FALSE(lazy.table_resident(0));
  EXPECT_EQ(lazy.residency().resident_bytes, lazy.table_resident_bytes(1));
  EXPECT_EQ(pinned->cell(1, 0), original.table(1).cell(1, 0));
}

TEST(TableStoreTest, EvictionAtIdlePointsBetweenReaderWavesIsSafe) {
  // The mutation/quiesce contract under TSan: a MaterializeAll sweep and
  // on-demand readers race each other freely within a wave; eviction runs
  // only at the idle point after every thread joined. Contents must stay
  // bit-identical through evict + re-parse cycles.
  Corpus original = MakeCorpus(16, 8);
  Corpus lazy = OpenLazyCopy(original, "evictwaves");
  lazy.SetBudget(1);
  for (int wave = 0; wave < 3; ++wave) {
    std::thread warm_thread(
        [&lazy] { EXPECT_TRUE(lazy.MaterializeAll().ok()); });
    std::vector<std::thread> readers;
    for (int w = 0; w < 4; ++w) {
      readers.emplace_back([&lazy, &original, w] {
        const size_t n = lazy.NumTables();
        for (size_t i = 0; i < n; ++i) {
          const TableId t = static_cast<TableId>((i + w * 5) % n);
          if (w % 2 == 0) {
            EXPECT_EQ(lazy.table(t).cell(1, 1), original.table(t).cell(1, 1));
          } else {
            const Table& table = lazy.table(t);
            EXPECT_EQ(table.cell(1, 1), original.table(t).cell(1, 1));
          }
        }
      });
    }
    warm_thread.join();
    for (std::thread& reader : readers) reader.join();
    lazy.EvictToBudget();  // idle: no in-flight materializer or reader
    EXPECT_EQ(lazy.residency().resident_bytes, 0u);
  }
  EXPECT_GT(lazy.residency().evictions, 0u);
  EXPECT_GT(lazy.residency().rematerializations, 0u);
  lazy.SetBudget(0);
  ASSERT_TRUE(lazy.MaterializeAll().ok());
  EXPECT_TRUE(CorporaEqual(original, lazy));
}

TEST(TableStoreTest, EvictedTableRematerializesByteIdentical) {
  // Cells that stress the compact layout: empty, embedded NUL, high bytes,
  // surrounding whitespace, and a long one.
  const std::vector<std::string> odd = {
      "",
      std::string("a\0b", 3),
      std::string(1, '\0'),
      "\xff\xfe caf\xc3\xa9",
      "  padded\t",
      std::string(300, 'w'),
  };
  Corpus original;
  for (size_t t = 0; t < 3; ++t) {
    Table table("odd_" + std::to_string(t));
    table.AddColumn("a");
    table.AddColumn("b");
    for (size_t r = 0; r < 20; ++r) {
      const std::string& a = odd[(r + t) % odd.size()];
      const std::string& b = odd[(r * 7 + t) % odd.size()];
      (void)table.AppendRow({a, b});
    }
    EXPECT_TRUE(table.DeleteRow(3).ok());
    original.AddTable(std::move(table));
  }
  Corpus lazy = OpenLazyCopy(original, "byte_identical");
  lazy.SetBudget(1);
  // Copies of the first materialization's cells: views die with eviction.
  std::vector<std::vector<std::string>> first;
  for (RowId r = 0; r < lazy.table(1).NumRows(); ++r) {
    first.push_back(lazy.table(1).RowValues(r));
  }
  for (int cycle = 0; cycle < 2; ++cycle) {
    lazy.EvictToBudget();
    ASSERT_FALSE(lazy.table_resident(1));
    // Each re-parse over an evicted slot must decode the same bytes as the
    // first pass.
    const Table& table = lazy.table(1);
    ASSERT_EQ(table.NumRows(), first.size());
    for (RowId r = 0; r < table.NumRows(); ++r) {
      EXPECT_EQ(table.cell(r, 1), first[r][1]) << cycle << " row " << r;
      EXPECT_EQ(table.cell(r, 1), original.table(1).cell(r, 1));
    }
    EXPECT_TRUE(TablesEqual(original.table(1), lazy.table(1)));
    EXPECT_EQ(lazy.table(1).PayloadBytes(), original.table(1).PayloadBytes());
  }
  EXPECT_EQ(lazy.residency().rematerializations, 2u);
  EXPECT_TRUE(lazy.load_status().ok());
}

TEST(TableStoreTest, ResidentStoreShapeAccessorsMatchTables) {
  Corpus corpus = MakeCorpus(3, 5);
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    EXPECT_TRUE(corpus.table_resident(t));
    EXPECT_EQ(corpus.table_name(t), corpus.table(t).name());
    EXPECT_EQ(corpus.table_num_rows(t), corpus.table(t).NumRows());
    EXPECT_EQ(corpus.table_num_live_rows(t), corpus.table(t).NumLiveRows());
  }
  EXPECT_TRUE(corpus.fully_resident());
  EXPECT_TRUE(corpus.load_status().ok());
  EXPECT_TRUE(corpus.MaterializeAll().ok());  // no-op, stays OK
}

}  // namespace
}  // namespace mate
