#include "index/index_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "index/index_builder.h"
#include "workload/generator.h"

namespace mate {
namespace {

Corpus MakeCorpus() {
  Vocabulary vocab = Vocabulary::Generate(300, Vocabulary::Style::kMixed, 7);
  CorpusSpec spec;
  spec.num_tables = 20;
  spec.seed = 3;
  return GenerateCorpus(spec, vocab);
}

struct BuiltIndex {
  std::unique_ptr<InvertedIndex> index;
  IndexBuildReport report;
};

BuiltIndex Build(const Corpus& corpus, HashFamily family) {
  IndexBuildOptions options;
  options.hash_family = family;
  BuiltIndex built;
  auto index = BuildIndexWithReport(corpus, options, &built.report);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  built.index = std::move(*index);
  return built;
}

void ExpectIndexesEqual(const Corpus& corpus, const InvertedIndex& a,
                        const InvertedIndex& b) {
  EXPECT_EQ(a.NumPostingEntries(), b.NumPostingEntries());
  EXPECT_EQ(a.hash_bits(), b.hash_bits());
  EXPECT_EQ(a.hash().Name(), b.hash().Name());
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    const Table& table = corpus.table(t);
    for (RowId r = 0; r < table.NumRows(); ++r) {
      EXPECT_EQ(a.superkeys().Get(t, r), b.superkeys().Get(t, r));
    }
  }
  EXPECT_EQ(a.NumPostingLists(), b.NumPostingLists());
  for (ValueId id = 0; id < a.NumPostingLists(); ++id) {
    const PostingSpan other = b.Lookup(a.dictionary().ValueOf(id));
    ASSERT_FALSE(other.empty());
    EXPECT_EQ(a.List(id), other);
  }
}

TEST(IndexIoTest, RoundTripXash) {
  Corpus corpus = MakeCorpus();
  BuiltIndex built = Build(corpus, HashFamily::kXash);
  std::string bytes;
  SerializeIndex(*built.index, HashFamily::kXash,
                 built.report.corpus_stats, &bytes);
  auto loaded = DeserializeIndex(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIndexesEqual(corpus, *built.index, **loaded);
}

TEST(IndexIoTest, LoadedHashIsBitIdentical) {
  // The loaded index must answer probes identically: hash a query value
  // with both hash functions and compare signatures.
  Corpus corpus = MakeCorpus();
  BuiltIndex built = Build(corpus, HashFamily::kXash);
  std::string bytes;
  SerializeIndex(*built.index, HashFamily::kXash,
                 built.report.corpus_stats, &bytes);
  auto loaded = DeserializeIndex(bytes);
  ASSERT_TRUE(loaded.ok());
  for (const char* probe : {"muhammad", "lee", "us", "1999", "x y z"}) {
    EXPECT_EQ(built.index->hash().HashValue(probe),
              (*loaded)->hash().HashValue(probe))
        << probe;
  }
}

TEST(IndexIoTest, RoundTripBloom) {
  Corpus corpus = MakeCorpus();
  BuiltIndex built = Build(corpus, HashFamily::kBloom);
  std::string bytes;
  SerializeIndex(*built.index, HashFamily::kBloom,
                 built.report.corpus_stats, &bytes);
  auto loaded = DeserializeIndex(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIndexesEqual(corpus, *built.index, **loaded);
}

TEST(IndexIoTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeIndex("not an index").ok());
  EXPECT_FALSE(DeserializeIndex("").ok());
}

TEST(IndexIoTest, RejectsTruncation) {
  Corpus corpus = MakeCorpus();
  BuiltIndex built = Build(corpus, HashFamily::kXash);
  std::string bytes;
  SerializeIndex(*built.index, HashFamily::kXash,
                 built.report.corpus_stats, &bytes);
  for (size_t frac = 1; frac <= 4; ++frac) {
    auto loaded = DeserializeIndex(
        std::string_view(bytes).substr(0, bytes.size() * frac / 5));
    EXPECT_FALSE(loaded.ok()) << frac;
  }
}

TEST(IndexIoTest, FileRoundTrip) {
  Corpus corpus = MakeCorpus();
  BuiltIndex built = Build(corpus, HashFamily::kXash);
  std::string path = testing::TempDir() + "/mate_index_io_test.bin";
  ASSERT_TRUE(SaveIndex(*built.index, HashFamily::kXash,
                        built.report.corpus_stats, path)
                  .ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIndexesEqual(corpus, *built.index, **loaded);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mate
