#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "index/index_builder.h"
#include "util/string_util.h"

namespace mate {
namespace {

Corpus MakeFigure1Corpus() {
  Corpus corpus;
  Table t1("T1");
  t1.AddColumn("Vorname");
  t1.AddColumn("Nachname");
  t1.AddColumn("Land");
  t1.AddColumn("Besetzung");
  (void)t1.AppendRow({"Helmut", "Newton", "Germany", "Photographer"});
  (void)t1.AppendRow({"Muhammad", "Lee", "US", "Dancer"});
  (void)t1.AppendRow({"Ansel", "Adams", "UK", "Dancer"});
  (void)t1.AppendRow({"Ansel", "Adams", "US", "Photographer"});
  (void)t1.AppendRow({"Muhammad", "Ali", "US", "Boxer"});
  (void)t1.AppendRow({"Muhammad", "Lee", "Germany", "Birder"});
  (void)t1.AppendRow({"Gretchen", "Lee", "Germany", "Artist"});
  (void)t1.AppendRow({"Adam", "Sandler", "US", "Actor"});
  corpus.AddTable(std::move(t1));

  Table t2("T2");
  t2.AddColumn("City");
  t2.AddColumn("Country");
  (void)t2.AppendRow({"Berlin", "Germany"});
  (void)t2.AppendRow({"Austin", "US"});
  corpus.AddTable(std::move(t2));
  return corpus;
}

std::unique_ptr<InvertedIndex> BuildDefault(const Corpus& corpus) {
  IndexBuildOptions options;
  auto index = BuildIndex(corpus, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(*index);
}

TEST(InvertedIndexTest, LookupFindsAllOccurrences) {
  Corpus corpus = MakeFigure1Corpus();
  auto index = BuildDefault(corpus);
  // "muhammad" appears in rows 1, 4, 5 of T1's first column (Example 2).
  const PostingSpan pl = index->Lookup("muhammad");
  ASSERT_EQ(pl.size(), 3u);
  EXPECT_EQ(pl[0], (PostingEntry{0, 0, 1}));
  EXPECT_EQ(pl[1], (PostingEntry{0, 0, 4}));
  EXPECT_EQ(pl[2], (PostingEntry{0, 0, 5}));
}

TEST(InvertedIndexTest, LookupSpansTables) {
  Corpus corpus = MakeFigure1Corpus();
  auto index = BuildDefault(corpus);
  const PostingSpan pl = index->Lookup("germany");
  ASSERT_EQ(pl.size(), 4u);  // 3 in T1, 1 in T2
  EXPECT_EQ(pl.back().table_id, 1u);
}

TEST(InvertedIndexTest, LookupIsNormalizedOnly) {
  Corpus corpus = MakeFigure1Corpus();
  auto index = BuildDefault(corpus);
  EXPECT_FALSE(index->Lookup("us").empty());
  // The index stores normalized values; raw-case probes miss by contract.
  EXPECT_TRUE(index->Lookup("US").empty());
  EXPECT_TRUE(index->Lookup("never-there").empty());
}

TEST(InvertedIndexTest, PostingEntriesCountEqualsLiveCells) {
  Corpus corpus = MakeFigure1Corpus();
  auto index = BuildDefault(corpus);
  EXPECT_EQ(index->NumPostingEntries(), 8u * 4 + 2u * 2);
}

TEST(InvertedIndexTest, SuperKeysMaskTheirRowValues) {
  Corpus corpus = MakeFigure1Corpus();
  auto index = BuildDefault(corpus);
  const Table& t1 = corpus.table(0);
  for (RowId r = 0; r < t1.NumRows(); ++r) {
    for (ColumnId c = 0; c < t1.NumColumns(); ++c) {
      BitVector sig =
          index->hash().HashValue(NormalizeValue(t1.cell(r, c)));
      EXPECT_TRUE(index->superkeys().Covers(0, r, sig))
          << "row " << r << " col " << c;
    }
  }
}

TEST(InvertedIndexTest, SuperKeyDistinguishesRows) {
  // Example 3's spirit: the composite key of row 1 should generally not be
  // masked by unrelated rows' super keys.
  Corpus corpus = MakeFigure1Corpus();
  auto index = BuildDefault(corpus);
  BitVector key = index->hash().MakeSuperKey({"muhammad", "lee", "us"});
  EXPECT_TRUE(index->superkeys().Covers(0, 1, key));   // the true row
  EXPECT_FALSE(index->superkeys().Covers(0, 7, key));  // adam sandler row
  EXPECT_FALSE(index->superkeys().Covers(1, 0, key));  // berlin row
}

TEST(InvertedIndexTest, BuildReportCountsMatch) {
  Corpus corpus = MakeFigure1Corpus();
  IndexBuildOptions options;
  IndexBuildReport report;
  auto index = BuildIndexWithReport(corpus, options, &report);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(report.posting_entries, (*index)->NumPostingEntries());
  EXPECT_EQ(report.superkey_bytes, (8 + 2) * 16u);  // 128-bit keys per row
  EXPECT_EQ(report.superkey_bytes_per_cell_layout,
            report.posting_entries * 16u);
  EXPECT_GT(report.corpus_stats.num_unique_values, 0u);
  EXPECT_GE(report.build_seconds, 0.0);
}

TEST(InvertedIndexTest, BuildRejectsBadWidth) {
  Corpus corpus = MakeFigure1Corpus();
  IndexBuildOptions options;
  options.hash_bits = 100;
  EXPECT_FALSE(BuildIndex(corpus, options).ok());
  options.hash_bits = 1024;
  EXPECT_FALSE(BuildIndex(corpus, options).ok());
}

TEST(InvertedIndexTest, BuildWithEveryHashFamily) {
  Corpus corpus = MakeFigure1Corpus();
  for (HashFamily family : AllHashFamilies()) {
    IndexBuildOptions options;
    options.hash_family = family;
    auto index = BuildIndex(corpus, options);
    ASSERT_TRUE(index.ok()) << HashFamilyName(family);
    EXPECT_EQ((*index)->hash().Name(), HashFamilyName(family));
  }
}

TEST(InvertedIndexTest, ResetHashRekeysSuperKeysOnly) {
  Corpus corpus = MakeFigure1Corpus();
  auto index = BuildDefault(corpus);
  size_t postings_before = index->NumPostingEntries();

  ASSERT_TRUE(
      index->ResetHash(MakeRowHash(HashFamily::kBloom, 256, nullptr)).ok());
  EXPECT_EQ(index->NumPostingEntries(), postings_before);
  EXPECT_EQ(index->hash_bits(), 256u);
  EXPECT_EQ(index->hash().Name(), "BF");
  // Re-keyed super keys still satisfy the masking contract.
  BitVector sig = index->hash().HashValue("muhammad");
  EXPECT_TRUE(index->superkeys().Covers(0, 1, sig));
}

TEST(InvertedIndexTest, ParallelBuildIsBitIdentical) {
  // The threaded build must produce exactly the serial index: identical
  // postings, dictionary ids, and super keys.
  Corpus corpus = MakeFigure1Corpus();
  for (int extra = 0; extra < 40; ++extra) {
    Table t("bulk_" + std::to_string(extra));
    t.AddColumn("a");
    t.AddColumn("b");
    (void)t.AppendRow({"val" + std::to_string(extra), "x"});
    (void)t.AppendRow({"val" + std::to_string(extra + 1), "y"});
    corpus.AddTable(std::move(t));
  }
  IndexBuildOptions serial_opts;
  IndexBuildOptions parallel_opts;
  parallel_opts.num_threads = 4;
  auto serial = BuildIndex(corpus, serial_opts);
  auto parallel = BuildIndex(corpus, parallel_opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ((*serial)->NumPostingEntries(), (*parallel)->NumPostingEntries());
  EXPECT_EQ((*serial)->dictionary().size(), (*parallel)->dictionary().size());
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    for (RowId r = 0; r < corpus.table(t).NumRows(); ++r) {
      ASSERT_EQ((*serial)->superkeys().Get(t, r),
                (*parallel)->superkeys().Get(t, r))
          << "t=" << t << " r=" << r;
    }
  }
  for (ValueId id = 0; id < (*serial)->NumPostingLists(); ++id) {
    const PostingSpan other =
        (*parallel)->Lookup((*serial)->dictionary().ValueOf(id));
    ASSERT_FALSE(other.empty());
    EXPECT_EQ((*serial)->List(id), other);
  }
}

TEST(InvertedIndexTest, ParallelResetHashMatchesSerial) {
  Corpus corpus = MakeFigure1Corpus();
  auto a = BuildDefault(corpus);
  auto b = BuildDefault(corpus);
  ASSERT_TRUE(
      a->ResetHash(MakeRowHash(HashFamily::kBloom, 256, nullptr), 1).ok());
  ASSERT_TRUE(
      b->ResetHash(MakeRowHash(HashFamily::kBloom, 256, nullptr), 8).ok());
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    for (RowId r = 0; r < corpus.table(t).NumRows(); ++r) {
      EXPECT_EQ(a->superkeys().Get(t, r), b->superkeys().Get(t, r));
    }
  }
}

TEST(InvertedIndexTest, MemoryBytesIsConsistent) {
  Corpus corpus = MakeFigure1Corpus();
  auto index = BuildDefault(corpus);
  EXPECT_EQ(index->MemoryBytes(),
            index->PostingBytes() + index->dictionary().MemoryBytes() +
                index->SuperKeyBytes());
}

// ---- differential: bulk build vs maintenance, re-key vs rebuild -------

// Tombstoned rows, empty, whitespace-padded and case-variant cells, and a
// value repeated across columns and tables.
Corpus HostileCorpus() {
  Corpus corpus = MakeFigure1Corpus();
  Table t("hostile");
  t.AddColumn("a");
  t.AddColumn("b");
  t.AddColumn("c");
  (void)t.AppendRow({"Lee", "lee", "  LEE "});
  (void)t.AppendRow({"", "Germany", ""});
  (void)t.AppendRow({"muhammad", "Muhammad ", "x"});
  (void)t.AppendRow({"gone", "gone", "gone"});
  (void)t.AppendRow({" US", "us", "Us"});
  (void)t.DeleteRow(3);
  corpus.AddTable(std::move(t));
  Table empty("no_rows");
  empty.AddColumn("a");
  corpus.AddTable(std::move(empty));
  (void)corpus.mutable_table(0)->DeleteRow(6);
  return corpus;
}

// Same dictionary ids, every list, and every super key.
void ExpectSameIndex(const InvertedIndex& a, const InvertedIndex& b) {
  ASSERT_EQ(a.dictionary().size(), b.dictionary().size());
  for (ValueId id = 0; id < a.dictionary().size(); ++id) {
    ASSERT_EQ(a.dictionary().ValueOf(id), b.dictionary().ValueOf(id)) << id;
    EXPECT_EQ(a.List(id), b.List(id)) << a.dictionary().ValueOf(id);
  }
  EXPECT_EQ(a.NumPostingEntries(), b.NumPostingEntries());
  EXPECT_EQ(a.hash().Name(), b.hash().Name());
  ASSERT_EQ(a.superkeys().RowCounts(), b.superkeys().RowCounts());
  for (TableId t = 0; t < a.superkeys().num_tables(); ++t) {
    for (RowId r = 0; r < a.superkeys().NumRows(t); ++r) {
      EXPECT_EQ(a.superkeys().Get(t, r), b.superkeys().Get(t, r))
          << "t=" << t << " r=" << r;
    }
  }
}

TEST(InvertedIndexTest, BuildReportStatsEqualTheStatsScan) {
  Corpus corpus = HostileCorpus();
  IndexBuildReport report;
  ASSERT_TRUE(BuildIndexWithReport(corpus, IndexBuildOptions{}, &report).ok());
  EXPECT_EQ(report.corpus_stats, corpus.ComputeStats());
}

using FamilyBits = std::tuple<HashFamily, size_t>;

class BuildDifferentialTest : public testing::TestWithParam<FamilyBits> {
 protected:
  IndexBuildOptions Options() const {
    IndexBuildOptions options;
    std::tie(options.hash_family, options.hash_bits) = GetParam();
    return options;
  }
};

TEST_P(BuildDifferentialTest, BulkBuildEqualsTableByTableInserts) {
  Corpus corpus = HostileCorpus();
  const IndexBuildOptions options = Options();
  IndexBuildReport report;
  auto built = BuildIndexWithReport(corpus, options, &report);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  InvertedIndex fed(MakeRowHash(options.hash_family, options.hash_bits,
                                &report.corpus_stats));
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    ASSERT_TRUE(fed.InsertTable(corpus, t).ok());
  }
  ExpectSameIndex(**built, fed);
}

TEST_P(BuildDifferentialTest, ReKeyedDefaultBuildEqualsDirectBuild) {
  Corpus corpus = HostileCorpus();
  const IndexBuildOptions options = Options();
  IndexBuildReport report;
  auto rekeyed = BuildIndexWithReport(corpus, IndexBuildOptions{}, &report);
  ASSERT_TRUE(rekeyed.ok()) << rekeyed.status().ToString();
  ASSERT_TRUE((*rekeyed)
                  ->ResetHash(MakeRowHash(options.hash_family,
                                          options.hash_bits,
                                          &report.corpus_stats),
                              /*num_threads=*/4)
                  .ok());
  auto direct = BuildIndex(corpus, options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ExpectSameIndex(**rekeyed, **direct);
}

std::string ParamName(const testing::TestParamInfo<FamilyBits>& info) {
  auto [family, bits] = info.param;
  return std::string(HashFamilyName(family)) + "_" + std::to_string(bits);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAt128And512, BuildDifferentialTest,
    testing::Combine(testing::ValuesIn(AllHashFamilies()),
                     testing::Values(size_t{128}, size_t{512})),
    ParamName);

}  // namespace
}  // namespace mate
