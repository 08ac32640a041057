// Loader hardening: every malformed index image must surface kCorruption —
// from phase 1 (PhasedIndexLoad::Begin / Session::Open) when the damage is
// visible in the header, shape, dictionary, or posting-region extent, or
// from the readiness check (WaitUntilReady / the first Discover) when it
// hides in the streamed sections. Never a crash, and never a silently
// empty or partial index. Includes a fuzz-style loop over random
// truncation offsets, a seeded single-byte mutation sweep, and checks the
// section/offset-bearing error messages.

#include "index/index_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "index/index_builder.h"
#include "storage/corpus_io.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mate {
namespace {

Corpus MakeCorpus() {
  Vocabulary vocab = Vocabulary::Generate(200, Vocabulary::Style::kMixed, 7);
  CorpusSpec spec;
  spec.num_tables = 12;
  spec.seed = 5;
  return GenerateCorpus(spec, vocab);
}

// One serialized world: corpus + index files plus the pristine index bytes
// and the offset where the super-key section starts (everything before it
// is header/shape/dictionary/postings).
struct Fixture {
  Corpus corpus;
  std::string corpus_path;
  std::string index_path;
  std::string index_bytes;
  size_t superkey_offset = 0;
};

Fixture MakeFixture(const std::string& tag, Corpus corpus = MakeCorpus()) {
  Fixture f;
  f.corpus = std::move(corpus);
  IndexBuildOptions options;
  IndexBuildReport report;
  auto index = BuildIndexWithReport(f.corpus, options, &report);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  SerializeIndex(**index, HashFamily::kXash, report.corpus_stats,
                 &f.index_bytes);
  // The super-key section is exactly what AppendToString emits, and it is
  // the image's suffix.
  std::string superkeys;
  (*index)->superkeys().AppendToString(&superkeys);
  f.superkey_offset = f.index_bytes.size() - superkeys.size();
  f.corpus_path = testing::TempDir() + "/mate_corrupt_" + tag + ".corpus";
  f.index_path = testing::TempDir() + "/mate_corrupt_" + tag + ".index";
  EXPECT_TRUE(SaveCorpus(f.corpus, f.corpus_path).ok());
  EXPECT_TRUE(WriteFileAtomic(f.index_path, f.index_bytes).ok());
  return f;
}

void RemoveFixture(const Fixture& f) {
  std::remove(f.corpus_path.c_str());
  std::remove(f.index_path.c_str());
}

// Writes `bytes` over the fixture's index file.
void OverwriteIndex(const Fixture& f, std::string_view bytes) {
  ASSERT_TRUE(WriteFileAtomic(f.index_path, bytes).ok());
}

// Opens a phased session over the (possibly tampered) files and returns
// the combined verdict: OK only if Open, readiness, and a real probe all
// succeed — the "silently empty index" failure mode would pass Open but
// must be caught by the readiness check.
Status PhasedOpenVerdict(const Fixture& f) {
  SessionOptions options;
  options.corpus_path = f.corpus_path;
  options.index_path = f.index_path;
  options.num_threads = 2;
  auto session = Session::Open(std::move(options));
  if (!session.ok()) return session.status();
  return session->WaitUntilReady();
}

// PhasedOpenVerdict followed by one Discover of `query` on its first two
// columns: OK only if the query returned too.
Status PhasedDiscoverVerdict(const Fixture& f, const Table& query) {
  SessionOptions options;
  options.corpus_path = f.corpus_path;
  options.index_path = f.index_path;
  options.num_threads = 1;
  options.cache_bytes = 0;
  auto session = Session::Open(std::move(options));
  if (!session.ok()) return session.status();
  MATE_RETURN_IF_ERROR(session->WaitUntilReady());
  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = {0, 1};
  spec.options.k = 5;
  return session->Discover(spec).status();
}

// A one-table lake whose single row holds `cells`.
Corpus OneRowCorpus(const std::vector<std::string>& cells) {
  Table table("one");
  for (size_t c = 0; c < cells.size(); ++c) {
    table.AddColumn("c" + std::to_string(c));
  }
  (void)table.AppendRow(cells);
  Corpus corpus;
  corpus.AddTable(std::move(table));
  return corpus;
}

// The image with byte `offset` set to `value` must fail the blocking
// loader and the phased session with kCorruption naming the postings
// section, its byte offset, and `what`.
void ExpectPostingRejected(const Fixture& f, size_t offset, char value,
                           const std::string& what) {
  std::string bytes = f.index_bytes;
  bytes[offset] = value;
  auto direct = DeserializeIndex(bytes);
  ASSERT_FALSE(direct.ok());
  const Status& status = direct.status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("postings section"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("byte offset"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(what), std::string::npos)
      << status.ToString();

  OverwriteIndex(f, bytes);
  Table query("q");
  query.AddColumn("a");
  query.AddColumn("b");
  (void)query.AppendRow({"x", "x"});
  const Status verdict = PhasedDiscoverVerdict(f, query);
  EXPECT_TRUE(verdict.IsCorruption()) << verdict.ToString();
  EXPECT_NE(verdict.message().find(what), std::string::npos)
      << verdict.ToString();
}

// ---- phase-1 failures ----------------------------------------------

TEST(IndexIoCorruptionTest, BadMagicFailsPhaseOne) {
  Fixture f = MakeFixture("magic");
  std::string bytes = f.index_bytes;
  bytes[0] ^= 0x5a;
  OverwriteIndex(f, bytes);

  auto direct = PhasedIndexLoad::Begin(f.index_path);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsCorruption()) << direct.status().ToString();

  Status verdict = PhasedOpenVerdict(f);
  EXPECT_TRUE(verdict.IsCorruption()) << verdict.ToString();
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, UnsupportedVersionNamesTheVersion) {
  Fixture f = MakeFixture("version");
  std::string bytes = f.index_bytes;
  bytes[8] = 99;  // little-endian fixed32 version right after the magic
  OverwriteIndex(f, bytes);
  auto loaded = LoadIndex(f.index_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
      << loaded.status().ToString();
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, RetiredVersionTwoIsRefusedByEveryLoader) {
  // v3 is the only index format: a v2 stamp fails every loader by name.
  Fixture f = MakeFixture("v2");
  std::string bytes = f.index_bytes;
  ASSERT_EQ(bytes[8], 3);
  bytes[8] = 2;
  OverwriteIndex(f, bytes);
  const std::string expected = "unsupported version 2 (expected 3)";
  auto direct = DeserializeIndex(bytes);
  auto loaded = LoadIndex(f.index_path);
  auto begin = PhasedIndexLoad::Begin(f.index_path);
  for (const Status& status :
       {direct.status(), loaded.status(), begin.status(),
        PhasedOpenVerdict(f)}) {
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_NE(status.message().find(expected), std::string::npos)
        << status.ToString();
  }
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, ShortPostingRegionFailsPhaseOne) {
  Fixture f = MakeFixture("shortpl");
  // Cut inside the posting region: the declared extent overruns the file,
  // so Begin itself must reject — before any postings are parsed.
  ASSERT_GT(f.superkey_offset, 1u);
  OverwriteIndex(f, std::string_view(f.index_bytes)
                        .substr(0, f.superkey_offset - 1));
  auto begin = PhasedIndexLoad::Begin(f.index_path);
  ASSERT_FALSE(begin.ok());
  EXPECT_TRUE(begin.status().IsCorruption()) << begin.status().ToString();
  EXPECT_NE(begin.status().message().find("posting"), std::string::npos)
      << begin.status().ToString();
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, TableAndRowCountSkewFailPhaseOne) {
  Fixture f = MakeFixture("skew");
  {
    // Corpus with an extra table: table-count skew against the shape
    // header, caught synchronously by Open.
    Corpus bigger = MakeCorpus();
    Table extra("extra");
    extra.AddColumn("a");
    (void)extra.AppendRow({"x"});
    bigger.AddTable(std::move(extra));
    ASSERT_TRUE(SaveCorpus(bigger, f.corpus_path).ok());
    SessionOptions options;
    options.corpus_path = f.corpus_path;
    options.index_path = f.index_path;
    auto session = Session::Open(std::move(options));
    ASSERT_FALSE(session.ok());
    EXPECT_TRUE(session.status().IsCorruption())
        << session.status().ToString();
  }
  {
    // Extra row in one table: row-count skew.
    Corpus edited = MakeCorpus();
    std::vector<std::string> row(edited.table(0).NumColumns(), "zzz");
    (void)edited.mutable_table(0)->AppendRow(std::move(row));
    ASSERT_TRUE(SaveCorpus(edited, f.corpus_path).ok());
    SessionOptions options;
    options.corpus_path = f.corpus_path;
    options.index_path = f.index_path;
    auto session = Session::Open(std::move(options));
    ASSERT_FALSE(session.ok());
    EXPECT_TRUE(session.status().IsCorruption())
        << session.status().ToString();
  }
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, ColumnBoundPastTheCorpusWidthFailsPhaseOne) {
  // Same tables and rows, one column fewer in table 0: the image's column
  // bound for that table no longer fits the corpus.
  Fixture f = MakeFixture("colskew");
  Corpus narrower = MakeCorpus();
  ASSERT_GT(narrower.table(0).NumColumns(), 1u);
  ASSERT_TRUE(narrower.mutable_table(0)->DropColumn(0).ok());
  ASSERT_TRUE(SaveCorpus(narrower, f.corpus_path).ok());
  SessionOptions options;
  options.corpus_path = f.corpus_path;
  options.index_path = f.index_path;
  auto session = Session::Open(std::move(options));
  ASSERT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsCorruption()) << session.status().ToString();
  EXPECT_NE(session.status().message().find("column"), std::string::npos)
      << session.status().ToString();
  RemoveFixture(f);
}

// ---- deferred (readiness-check) failures ---------------------------

TEST(IndexIoCorruptionTest, TruncatedSuperKeysFailAtReadinessNotOpen) {
  Fixture f = MakeFixture("sktrunc");
  // Cut inside the super-key section: phase 1 sees an intact posting
  // region, so Open succeeds — the corruption must surface from the
  // readiness check (and from the first Discover), never as a silently
  // partial index.
  const size_t cut = f.superkey_offset + (f.index_bytes.size() -
                                          f.superkey_offset) / 2;
  ASSERT_GT(f.index_bytes.size(), cut);
  OverwriteIndex(f, std::string_view(f.index_bytes).substr(0, cut));

  SessionOptions options;
  options.corpus_path = f.corpus_path;
  options.index_path = f.index_path;
  options.num_threads = 2;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  Status ready = session->WaitUntilReady();
  EXPECT_TRUE(ready.IsCorruption()) << ready.ToString();
  EXPECT_NE(ready.message().find("super"), std::string::npos)
      << ready.ToString();

  // Discover reports the same deferred corruption instead of running on a
  // half-built index.
  Table query("q");
  query.AddColumn("a");
  (void)query.AppendRow({"x"});
  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = {0};
  spec.options.k = 3;
  auto result = session->Discover(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, TrailingGarbageFailsAtReadiness) {
  Fixture f = MakeFixture("trailing");
  std::string bytes = f.index_bytes + "garbage";
  OverwriteIndex(f, bytes);
  Status verdict = PhasedOpenVerdict(f);
  EXPECT_TRUE(verdict.IsCorruption()) << verdict.ToString();
  EXPECT_NE(verdict.message().find("trailing"), std::string::npos)
      << verdict.ToString();
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, RepeatedDictionaryValueFailsPhaseOne) {
  // The dictionary section of a two-value lake is [2] [2 "xx"] [2 "yy"].
  // Spelling the second value "xx" repeats the first: interning it hands
  // back id 0 where the image means id 1.
  Fixture f = MakeFixture("dictrepeat", OneRowCorpus({"xx", "yy"}));
  const std::string section("\x02\x02xx\x02yy", 7);
  const size_t at = f.index_bytes.find(section);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(f.index_bytes.find(section, at + 1), std::string::npos);
  std::string bytes = f.index_bytes;
  bytes.replace(at + 5, 2, "xx");
  OverwriteIndex(f, bytes);

  auto begin = PhasedIndexLoad::Begin(f.index_path);
  ASSERT_FALSE(begin.ok());
  EXPECT_TRUE(begin.status().IsCorruption()) << begin.status().ToString();
  EXPECT_NE(begin.status().message().find("dictionary id skew"),
            std::string::npos)
      << begin.status().ToString();
  EXPECT_NE(begin.status().message().find("dictionary section"),
            std::string::npos)
      << begin.status().ToString();
  const Status verdict = PhasedOpenVerdict(f);
  EXPECT_TRUE(verdict.IsCorruption()) << verdict.ToString();
  EXPECT_NE(verdict.message().find("dictionary id skew"), std::string::npos)
      << verdict.ToString();
  RemoveFixture(f);
}

// ---- posting entries checked against the shape ---------------------
// In a one-row lake's image the posting region ends where the super-key
// section starts: per list [length], per entry [table delta] [row]
// [column].

TEST(IndexIoCorruptionTest, EntryTablePastTheShapeIsRejected) {
  Fixture f = MakeFixture("entrytable", OneRowCorpus({"x"}));
  const size_t table_byte = f.superkey_offset - 3;  // [1] [0] [0] [0]
  ASSERT_EQ(f.index_bytes.substr(table_byte - 1, 4),
            std::string("\x01\x00\x00\x00", 4));
  ExpectPostingRejected(f, table_byte, 127, "table 127");
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, EntryRowPastItsTableIsRejected) {
  // Without the check, the first Discover probes row 127's super key, past
  // the one-row table's slab.
  Fixture f = MakeFixture("entryrow", OneRowCorpus({"x"}));
  const size_t row_byte = f.superkey_offset - 2;
  ASSERT_EQ(f.index_bytes[row_byte], 0);
  ExpectPostingRejected(f, row_byte, 127, "row 127");
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, EntryColumnPastItsTableIsRejected) {
  Fixture f = MakeFixture("entrycolumn", OneRowCorpus({"x"}));
  const size_t column_byte = f.superkey_offset - 1;
  ASSERT_EQ(f.index_bytes[column_byte], 0);
  ExpectPostingRejected(f, column_byte, 5, "column 5");
  RemoveFixture(f);
}

TEST(IndexIoCorruptionTest, ListOutOfOrderIsRejected) {
  // "x" sits in both columns: one list [2] [0 0 0] [0 0 1]. Coding the
  // second entry as column 0 repeats the first.
  Fixture f = MakeFixture("entryorder", OneRowCorpus({"x", "x"}));
  const size_t column_byte = f.superkey_offset - 1;
  ASSERT_EQ(f.index_bytes.substr(column_byte - 6, 7),
            std::string("\x02\x00\x00\x00\x00\x00\x01", 7));
  ExpectPostingRejected(f, column_byte, 0, "not strictly ascending");
  RemoveFixture(f);
}

// ---- fuzz-style truncation sweep -----------------------------------

TEST(IndexIoCorruptionTest, RandomTruncationsNeverCrashOrPassSilently) {
  Fixture f = MakeFixture("fuzz");
  Rng rng(2024);
  std::vector<size_t> cuts = {0, 1, 7, 8, 9, 11, 12, 13,
                              f.index_bytes.size() - 1};
  for (int i = 0; i < 48; ++i) {
    cuts.push_back(rng.Uniform(f.index_bytes.size()));
  }
  for (size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut) + "/" +
                 std::to_string(f.index_bytes.size()));
    const std::string_view truncated =
        std::string_view(f.index_bytes).substr(0, cut);

    // Blocking load: must reject.
    auto direct = DeserializeIndex(truncated);
    ASSERT_FALSE(direct.ok());
    EXPECT_TRUE(direct.status().IsCorruption()) << direct.status().ToString();

    // Phased session open: Open may accept (damage past phase 1), but then
    // the readiness check must reject. Every 4th cut to keep runtime sane.
    if (cut % 4 == 0) {
      OverwriteIndex(f, truncated);
      Status verdict = PhasedOpenVerdict(f);
      EXPECT_TRUE(verdict.IsCorruption()) << verdict.ToString();
    }
  }
  RemoveFixture(f);
}

// ---- deterministic mutation sweep ----------------------------------

// A small lake with the cells loaders and verifiers trip on: tombstoned
// rows, empty, whitespace-padded and case-variant cells, and a value
// repeated across columns.
Corpus SweepCorpus() {
  Corpus corpus;
  Table people("people");
  people.AddColumn("first");
  people.AddColumn("last");
  people.AddColumn("country");
  (void)people.AppendRow({"Muhammad", "Lee", "US"});
  (void)people.AppendRow({"  helmut ", "Newton", "Germany"});
  (void)people.AppendRow({"ANSEL", "adams", ""});
  (void)people.AppendRow({"lee", "Lee", "lee"});
  (void)people.AppendRow({"Gretchen", "Lee", "Germany"});
  (void)people.DeleteRow(4);
  corpus.AddTable(std::move(people));
  Table pets("pets");
  pets.AddColumn("owner");
  pets.AddColumn("pet");
  (void)pets.AppendRow({"muhammad", "LEE"});
  (void)pets.AppendRow({"Helmut", "newton "});
  (void)pets.AppendRow({"x", "x"});
  corpus.AddTable(std::move(pets));
  Table tiny("tiny");
  tiny.AddColumn("a");
  (void)tiny.AppendRow({"us"});
  (void)tiny.AppendRow({"zz"});
  (void)tiny.DeleteRow(1);
  corpus.AddTable(std::move(tiny));
  return corpus;
}

TEST(IndexIoCorruptionTest, SeededByteFlipsEndInCorruptionOrAnAnswer) {
  // Single-byte flips of every byte of the header, shape, dictionary and
  // posting region (the low bit, the varint continuation bit and two
  // seeded masks each), plus one seeded flip of each of a sample of
  // super-key bytes. Each mutant goes through the blocking loader and a
  // phased open + readiness + Discover: it must end in kCorruption or in
  // an answer (and, under the sanitizer legs, without a report).
  Fixture f = MakeFixture("sweep", SweepCorpus());
  Table query("q");
  query.AddColumn("first");
  query.AddColumn("last");
  (void)query.AppendRow({"Muhammad", "Lee"});
  (void)query.AppendRow({"helmut", "NEWTON"});
  (void)query.AppendRow({"lee", "lee"});
  ASSERT_TRUE(PhasedDiscoverVerdict(f, query).ok());

  Rng rng(2026);
  const auto seeded_mask = [&rng] {
    return static_cast<uint8_t>(1 + rng.Uniform(255));
  };
  std::vector<std::pair<size_t, uint8_t>> flips;  // (offset, xor mask)
  for (size_t i = 0; i < f.superkey_offset; ++i) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, seeded_mask(),
                         seeded_mask()}) {
      flips.emplace_back(i, mask);
    }
  }
  const size_t superkey_bytes = f.index_bytes.size() - f.superkey_offset;
  for (int i = 0; i < 64; ++i) {
    flips.emplace_back(f.superkey_offset + rng.Uniform(superkey_bytes),
                       seeded_mask());
  }
  size_t rejected = 0;
  size_t answered = 0;
  for (const auto& [offset, mask] : flips) {
    std::string bytes = f.index_bytes;
    bytes[offset] = static_cast<char>(bytes[offset] ^ mask);
    SCOPED_TRACE("offset=" + std::to_string(offset) +
                 " mask=" + std::to_string(mask));
    auto direct = DeserializeIndex(bytes);
    EXPECT_TRUE(direct.ok() || direct.status().IsCorruption())
        << direct.status().ToString();
    OverwriteIndex(f, bytes);
    const Status verdict = PhasedDiscoverVerdict(f, query);
    EXPECT_TRUE(verdict.ok() || verdict.IsCorruption()) << verdict.ToString();
    ++(verdict.ok() ? answered : rejected);
  }
  // Most flips break the image; flips inside dictionary strings, stats
  // and super-key words leave a well-formed one.
  EXPECT_GT(rejected, flips.size() / 2);
  EXPECT_GT(answered, 0u);
  RemoveFixture(f);
}

// ---- error messages carry section + offset (the LoadIndex fix) ------

TEST(IndexIoCorruptionTest, MidPostingErrorsNameSectionAndOffset) {
  Fixture f = MakeFixture("offsets");
  // A truncation that lands in the posting region: the declared extent
  // overruns the file and the error must say which section and where.
  OverwriteIndex(f, std::string_view(f.index_bytes)
                        .substr(0, f.superkey_offset - 1));
  auto loaded = LoadIndex(f.index_path);
  ASSERT_FALSE(loaded.ok());
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("postings section"), std::string::npos) << message;
  EXPECT_NE(message.find("byte offset"), std::string::npos) << message;

  // And a cut inside the super keys names that section.
  const size_t cut = f.index_bytes.size() - 4;
  OverwriteIndex(f, std::string_view(f.index_bytes).substr(0, cut));
  auto sk = LoadIndex(f.index_path);
  ASSERT_FALSE(sk.ok());
  EXPECT_NE(sk.status().message().find("super-key section"),
            std::string::npos)
      << sk.status().ToString();
  RemoveFixture(f);
}

}  // namespace
}  // namespace mate