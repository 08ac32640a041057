#include "storage/corpus_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "storage/table_store.h"

namespace mate {
namespace {

Corpus MakeCorpus() {
  Corpus corpus;
  Table t1("sensors");
  t1.AddColumn("time");
  t1.AddColumn("city");
  (void)t1.AppendRow({"2024-01-01", "berlin"});
  (void)t1.AppendRow({"2024-01-02", "hannover"});
  (void)t1.AppendRow({"2024-01-03", "munich"});
  EXPECT_TRUE(t1.DeleteRow(1).ok());
  corpus.AddTable(std::move(t1));

  Table t2("empty table");
  t2.AddColumn("only column, with comma \"and quotes\"");
  corpus.AddTable(std::move(t2));
  return corpus;
}

void ExpectCorporaEqual(const Corpus& a, const Corpus& b) {
  ASSERT_EQ(a.NumTables(), b.NumTables());
  for (TableId t = 0; t < a.NumTables(); ++t) {
    const Table& ta = a.table(t);
    const Table& tb = b.table(t);
    EXPECT_EQ(ta.name(), tb.name());
    ASSERT_EQ(ta.NumColumns(), tb.NumColumns());
    ASSERT_EQ(ta.NumRows(), tb.NumRows());
    EXPECT_EQ(ta.NumLiveRows(), tb.NumLiveRows());
    for (ColumnId c = 0; c < ta.NumColumns(); ++c) {
      EXPECT_EQ(ta.column_name(c), tb.column_name(c));
      for (RowId r = 0; r < ta.NumRows(); ++r) {
        EXPECT_EQ(ta.cell(r, c), tb.cell(r, c));
        EXPECT_EQ(ta.IsRowDeleted(r), tb.IsRowDeleted(r));
      }
    }
  }
}

TEST(CorpusIoTest, SerializeDeserializeRoundTrip) {
  Corpus corpus = MakeCorpus();
  std::string bytes;
  SerializeCorpus(corpus, &bytes);
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCorporaEqual(corpus, *loaded);
}

TEST(CorpusIoTest, RejectsBadMagic) {
  std::string bytes = "NOTMAGIC-and-more-bytes";
  auto loaded = DeserializeCorpus(bytes);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST(CorpusIoTest, RejectsTruncation) {
  Corpus corpus = MakeCorpus();
  std::string bytes;
  SerializeCorpus(corpus, &bytes);
  for (size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    auto loaded = DeserializeCorpus(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
  }
}

TEST(CorpusIoTest, FileRoundTrip) {
  Corpus corpus = MakeCorpus();
  std::string path = testing::TempDir() + "/mate_corpus_io_test.bin";
  ASSERT_TRUE(SaveCorpus(corpus, path).ok());
  auto loaded = LoadCorpus(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCorporaEqual(corpus, *loaded);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, LoadMissingFileIsIOError) {
  auto loaded = LoadCorpus("/nonexistent/dir/corpus.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(CorpusIoTest, EmptyCorpusRoundTrip) {
  Corpus corpus;
  std::string bytes;
  SerializeCorpus(corpus, &bytes);
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumTables(), 0u);
}

TEST(CorpusIoTest, StatsRoundTripThroughTheHeader) {
  Corpus corpus = MakeCorpus();
  const CorpusStats stats = corpus.ComputeStats();
  std::string bytes;
  SerializeCorpus(corpus, stats, &bytes);
  CorpusStats loaded_stats;
  bool present = false;
  auto loaded = DeserializeCorpus(bytes, &loaded_stats, &present);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(present);
  EXPECT_TRUE(loaded_stats == stats);
  ExpectCorporaEqual(corpus, *loaded);

  // The stats-less writer marks them absent (all-zero payload).
  SerializeCorpus(corpus, &bytes);
  present = true;
  auto plain = DeserializeCorpus(bytes, &loaded_stats, &present);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(present);
}

TEST(CorpusIoTest, LazyOpenRoundTripsAndServesStats) {
  Corpus corpus = MakeCorpus();
  const CorpusStats stats = corpus.ComputeStats();
  const std::string path = testing::TempDir() + "/mate_corpus_io_lazy.bin";
  ASSERT_TRUE(SaveCorpus(corpus, stats, path).ok());
  CorpusStats loaded_stats;
  bool present = false;
  auto lazy = OpenCorpusLazy(path, &loaded_stats, &present);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_TRUE(present);
  EXPECT_TRUE(loaded_stats == stats);
  EXPECT_FALSE(lazy->fully_resident());  // header only so far
  ExpectCorporaEqual(corpus, *lazy);     // materializes on access
  EXPECT_TRUE(lazy->fully_resident());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mate
