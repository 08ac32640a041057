// Corpus-loader hardening, mirroring the index suite
// (index_io_corruption_test): a malformed or truncated corpus image must
// fail with a kCorruption error naming the section and byte offset — at
// open when the damage is in the header/directory/region extent, or from
// the sticky TableStore status when it is confined to one table's cell
// blob — and must never crash, drive a huge allocation, or yield a
// silently empty table.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "storage/corpus.h"
#include "storage/corpus_io.h"
#include "storage/table_store.h"
#include "util/coding.h"
#include "util/rng.h"

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

  Table t3("wide");
  for (int c = 0; c < 5; ++c) t3.AddColumn("c" + std::to_string(c));
  for (int r = 0; r < 12; ++r) {
    std::vector<std::string> cells;
    for (int c = 0; c < 5; ++c) {
      cells.push_back("v" + std::to_string(r) + "_" + std::to_string(c));
    }
    (void)t3.AppendRow(std::move(cells));
  }
  corpus.AddTable(std::move(t3));
  return corpus;
}

std::string SerializeWithStats(const Corpus& corpus) {
  std::string bytes;
  SerializeCorpus(corpus, corpus.ComputeStats(), &bytes);
  return bytes;
}

std::string WriteTemp(const std::string& tag, std::string_view bytes) {
  const std::string path =
      testing::TempDir() + "/mate_corpus_corruption_" + tag + ".bin";
  EXPECT_TRUE(WriteFileAtomic(path, bytes).ok());
  return path;
}

// The cell region is the image's suffix; its extent is the sum of the
// per-table blob sizes (the directory's cell_bytes values).
size_t CellRegionStart(const Corpus& corpus, const std::string& bytes) {
  uint64_t region = 0;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    region += TableCellBytes(corpus.table(t));
  }
  return bytes.size() - static_cast<size_t>(region);
}

TEST(CorpusIoCorruptionTest, BadMagicNamesTheCorpus) {
  auto loaded = DeserializeCorpus("NOTMAGIC-and-more-bytes-to-parse");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("corpus"), std::string::npos);
}

TEST(CorpusIoCorruptionTest, UnsupportedVersionNamesTheVersion) {
  // Format v3 is the only one: the retired v1 and v2 stamps are rejected
  // exactly like an unknown version, by the eager and the lazy reader.
  for (const int version : {1, 2, 9}) {
    std::string bytes = SerializeWithStats(MakeCorpus());
    bytes[8] = static_cast<char>(version);  // fixed32 LE low byte
    const std::string expected =
        "unsupported version " + std::to_string(version) + " (expected 3)";
    auto loaded = DeserializeCorpus(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption());
    EXPECT_NE(loaded.status().message().find(expected), std::string::npos);
    EXPECT_NE(loaded.status().message().find("header section, byte offset"),
              std::string::npos)
        << loaded.status().message();

    const std::string path = WriteTemp("version", bytes);
    auto lazy = OpenCorpusLazy(path);
    std::remove(path.c_str());
    ASSERT_FALSE(lazy.ok());
    EXPECT_TRUE(lazy.status().IsCorruption());
    EXPECT_EQ(lazy.status().message(), loaded.status().message());
  }
}

TEST(CorpusIoCorruptionTest, TruncatedStatsNamesSectionAndOffset) {
  std::string bytes = SerializeWithStats(MakeCorpus());
  auto loaded = DeserializeCorpus(bytes.substr(0, 14));  // mid-stats
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("stats section"),
            std::string::npos);
  EXPECT_NE(loaded.status().message().find("byte offset"), std::string::npos);
}

TEST(CorpusIoCorruptionTest, TruncatedDirectoryNamesSectionAndOffset) {
  Corpus corpus = MakeCorpus();
  std::string bytes = SerializeWithStats(corpus);
  const size_t region_start = CellRegionStart(corpus, bytes);
  // Any cut between the stats and the region prefix lands in the table
  // directory (or its region-size header).
  auto loaded =
      DeserializeCorpus(bytes.substr(0, region_start - 12));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  const std::string& message = loaded.status().message();
  EXPECT_TRUE(message.find("table directory section") != std::string::npos ||
              message.find("cell region section") != std::string::npos)
      << message;
  EXPECT_NE(message.find("byte offset"), std::string::npos);
}

TEST(CorpusIoCorruptionTest, ShortCellRegionFailsAtOpenNotMidQuery) {
  const std::string bytes = SerializeWithStats(MakeCorpus());
  // Cut inside the cell region: the size prefix no longer matches, so even
  // the *lazy* open — which parses no cells — must fail up front.
  const std::string cut = bytes.substr(0, bytes.size() - 5);
  auto eager = DeserializeCorpus(cut);
  ASSERT_FALSE(eager.ok());
  EXPECT_TRUE(eager.status().IsCorruption());
  EXPECT_NE(eager.status().message().find("cell region"), std::string::npos);

  const std::string path = WriteTemp("short_region", cut);
  auto lazy = OpenCorpusLazy(path);
  ASSERT_FALSE(lazy.ok());
  EXPECT_TRUE(lazy.status().IsCorruption());
  EXPECT_NE(lazy.status().message().find("cell region"), std::string::npos);
  EXPECT_NE(lazy.status().message().find("byte offset"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CorpusIoCorruptionTest, TrailingGarbageIsRejected) {
  std::string bytes = SerializeWithStats(MakeCorpus());
  bytes += "junk";
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("trailing"), std::string::npos);
}

TEST(CorpusIoCorruptionTest, DirectoryRegionSizeSkewIsRejected) {
  Corpus corpus = MakeCorpus();
  std::string bytes = SerializeWithStats(corpus);
  const size_t region_start = CellRegionStart(corpus, bytes);
  // Grow the region by 3 bytes without touching the directory: the fixed64
  // prefix and the directory's per-table sums now disagree.
  std::string grown = bytes.substr(0, region_start - 8);
  PutFixed64(&grown, bytes.size() - region_start + 3);
  grown += bytes.substr(region_start);
  grown += "xyz";
  auto loaded = DeserializeCorpus(grown);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("size skew"), std::string::npos);
}

// A flipped byte inside one table's cell blob: the lazy open succeeds (the
// header is intact), and the damage surfaces at that table's
// materialization as a sticky, offset-bearing status — with the table
// coming back as a shape-complete stub, never out-of-bounds, and the
// remaining tables unharmed.
TEST(CorpusIoCorruptionTest, CellBlobCorruptionIsStickyAndShapeSafe) {
  Corpus corpus = MakeCorpus();
  const std::string bytes = SerializeWithStats(corpus);
  const size_t region_start = CellRegionStart(corpus, bytes);
  bool found_parse_failure = false;
  for (size_t offset = region_start; offset < bytes.size(); ++offset) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x80);
    const std::string path = WriteTemp("flip", mutated);
    auto lazy = OpenCorpusLazy(path);
    std::remove(path.c_str());
    ASSERT_TRUE(lazy.ok()) << "header must be intact: "
                           << lazy.status().ToString();
    const Status all = lazy->MaterializeAll();
    if (all.ok()) continue;  // content flip: parses, just different cells
    found_parse_failure = true;
    EXPECT_TRUE(all.IsCorruption());
    EXPECT_NE(all.message().find("cell region"), std::string::npos)
        << all.message();
    EXPECT_NE(all.message().find("byte offset"), std::string::npos);
    EXPECT_EQ(lazy->load_status().message(), all.message());
    // Shape-complete stubs: every table still has its declared geometry.
    for (TableId t = 0; t < lazy->NumTables(); ++t) {
      EXPECT_EQ(lazy->table(t).NumRows(), corpus.table(t).NumRows());
      EXPECT_EQ(lazy->table(t).NumColumns(), corpus.table(t).NumColumns());
      EXPECT_FALSE(lazy->EnsureTable(t).ok());  // sticky for every caller
    }
  }
  EXPECT_TRUE(found_parse_failure)
      << "no flip produced a parse failure; the fuzz lost its teeth";
}

// Truncation fuzz over the whole image at 48 deterministic offsets: every
// cut either fails cleanly at (lazy or eager) open with a section+offset
// message, or — when it only sheared future-proof slack — round-trips
// equal. Never a crash, never a silently short corpus.
TEST(CorpusIoCorruptionTest, TruncationFuzzFailsCleanlyEverywhere) {
  Corpus corpus = MakeCorpus();
  const std::string bytes = SerializeWithStats(corpus);
  for (size_t i = 0; i < 48; ++i) {
    const size_t cut = (bytes.size() - 1) * (i + 1) / 48;
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string_view prefix = std::string_view(bytes).substr(0, cut);
    auto eager = DeserializeCorpus(prefix);
    if (eager.ok()) {
      EXPECT_TRUE(CorporaEqual(corpus, *eager));
    } else {
      EXPECT_TRUE(eager.status().IsCorruption());
      EXPECT_NE(eager.status().message().find("byte offset"),
                std::string::npos)
          << eager.status().message();
    }
    const std::string path = WriteTemp("trunc", prefix);
    auto lazy = OpenCorpusLazy(path);
    std::remove(path.c_str());
    if (!lazy.ok()) {
      EXPECT_TRUE(lazy.status().IsCorruption());
      continue;
    }
    // A cut that survives the header bounds checks must still either
    // materialize fully or latch a clean error.
    const Status all = lazy->MaterializeAll();
    if (all.ok()) EXPECT_TRUE(CorporaEqual(corpus, *lazy));
  }
}

TEST(CorpusIoCorruptionTest, HugeDeclaredTableCountFailsFast) {
  std::string bytes;
  bytes.append("MATECORP", 8);
  PutFixed32(&bytes, 3);
  bytes.push_back('\x00');
  AppendCorpusStats(&bytes, CorpusStats{});
  PutVarint64(&bytes, uint64_t{1} << 60);  // would reserve petabytes
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("bad table count"),
            std::string::npos);
}

TEST(CorpusIoCorruptionTest, HugeDeclaredColumnCountFailsFast) {
  Corpus corpus = MakeCorpus();
  std::string bytes;
  bytes.append("MATECORP", 8);
  PutFixed32(&bytes, 3);
  bytes.push_back('\x00');
  AppendCorpusStats(&bytes, CorpusStats{});
  PutVarint64(&bytes, 1);
  PutLengthPrefixed(&bytes, "t");
  PutVarint64(&bytes, uint64_t{1} << 59);
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("bad column count"),
            std::string::npos);
}

TEST(CorpusIoCorruptionTest, WrappingRowCountCannotFakeAnEmptyBitmap) {
  // num_rows = 2^64 - 1 makes (num_rows + 7) / 8 wrap to 0, so without a
  // bound a zero-length bitmap would "cover" every row and the popcount
  // would loop ~2^64 times off the end of an empty view.
  std::string bytes;
  bytes.append("MATECORP", 8);
  PutFixed32(&bytes, 3);
  bytes.push_back('\x00');
  AppendCorpusStats(&bytes, CorpusStats{});
  PutVarint64(&bytes, 1);
  PutLengthPrefixed(&bytes, "t");
  PutVarint64(&bytes, 0);  // no columns
  PutVarint64(&bytes, std::numeric_limits<uint64_t>::max());  // num_rows
  PutLengthPrefixed(&bytes, "");  // empty bitmap: (2^64-1+7)/8 wraps to 0
  PutVarint64(&bytes, 0);         // cell_bytes
  PutFixed64(&bytes, 0);          // region total
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("bad row count"),
            std::string::npos);
}

TEST(CorpusIoCorruptionTest, WrappingCellSizesCannotPassTheSkewCheck) {
  // Two extents summing to the true region size mod 2^64: without the
  // per-entry bound + overflow-safe sum they would pass the skew check and
  // drive substr past the end of the image at materialization.
  std::string bytes;
  bytes.append("MATECORP", 8);
  PutFixed32(&bytes, 3);
  bytes.push_back('\x00');
  AppendCorpusStats(&bytes, CorpusStats{});
  PutVarint64(&bytes, 2);
  for (int t = 0; t < 2; ++t) {
    PutLengthPrefixed(&bytes, "t" + std::to_string(t));
    PutVarint64(&bytes, 0);          // no columns
    PutVarint64(&bytes, 0);          // no rows
    PutLengthPrefixed(&bytes, "");   // empty bitmap
    // cell_bytes: 2^63 each; sum wraps to 0 == declared region total.
    PutVarint64(&bytes, uint64_t{1} << 63);
  }
  PutFixed64(&bytes, 0);  // region total (matches the wrapped sum)
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("bad cell size"),
            std::string::npos);
}

TEST(CorpusIoCorruptionTest, ShapeLargerThanItsCellExtentIsRejected) {
  // 800 declared rows backed by a real 100-byte bitmap but a zero-byte
  // cell blob: every cell costs >= 1 byte, so this shape is impossible —
  // and without the bound, the shape stub built after the failed parse
  // would amplify a tiny file into an 800-row allocation.
  std::string bytes;
  bytes.append("MATECORP", 8);
  PutFixed32(&bytes, 3);
  bytes.push_back('\x00');
  AppendCorpusStats(&bytes, CorpusStats{});
  PutVarint64(&bytes, 1);
  PutLengthPrefixed(&bytes, "t");
  PutVarint64(&bytes, 1);
  PutLengthPrefixed(&bytes, "c0");
  PutVarint64(&bytes, 800);
  PutLengthPrefixed(&bytes, std::string(100, '\0'));  // bitmap for 800 rows
  PutVarint64(&bytes, 0);                             // cell_bytes
  PutFixed64(&bytes, 0);                              // region total
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("too small for the declared "
                                           "shape"),
            std::string::npos);
}

TEST(CorpusIoCorruptionTest, DeletedBitmapSizeSkewIsRejected) {
  Corpus corpus = MakeCorpus();
  std::string bytes = SerializeWithStats(corpus);
  // The first directory entry's bitmap is 1 byte for 3 rows; shrinking the
  // declared row count desynchronizes it.
  const std::string needle = "sensors";
  const size_t name_at = bytes.find(needle);
  ASSERT_NE(name_at, std::string::npos);
  // name, num_cols varint, 2 col-name lps, then rows varint (value 3).
  size_t pos = name_at + needle.size();
  ASSERT_EQ(bytes[pos], 2);  // num_cols varint
  pos += 1;
  for (int lp = 0; lp < 2; ++lp) {
    pos += 1 + static_cast<unsigned char>(bytes[pos]);
  }
  ASSERT_EQ(bytes[pos], 3);  // num_rows varint
  bytes[pos] = 9;
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("deleted bitmap"),
            std::string::npos);
}

// Walks the first directory entry ("sensors": 2 columns, 3 rows, all
// single-byte varints) to the position of its first per-column extent.
size_t SensorsPerColumnOffset(const std::string& bytes) {
  const std::string needle = "sensors";
  const size_t name_at = bytes.find(needle);
  EXPECT_NE(name_at, std::string::npos);
  size_t pos = name_at + needle.size();
  EXPECT_EQ(bytes[pos], 2);  // num_cols varint
  pos += 1;
  for (int lp = 0; lp < 2; ++lp) {  // column-name length prefixes
    pos += 1 + static_cast<unsigned char>(bytes[pos]);
  }
  EXPECT_EQ(bytes[pos], 3);  // num_rows varint
  pos += 1;
  pos += 1 + static_cast<unsigned char>(bytes[pos]);  // deleted bitmap
  pos += 1;  // cell_bytes varint (small enough for one byte)
  return pos;
}

TEST(CorpusIoCorruptionTest, PerColumnExtentPastTheBlobIsRejected) {
  Corpus corpus = MakeCorpus();
  std::string bytes = SerializeWithStats(corpus);
  const size_t pos = SensorsPerColumnOffset(bytes);
  ASSERT_EQ(static_cast<uint64_t>(bytes[pos]),
            TableColumnCellBytes(corpus.table(0), 0));
  // One column claiming more bytes than the whole blob holds: must fail at
  // open, in the directory, not as a wild sub-blob parse later.
  bytes[pos] = '\x7f';
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("bad column cell size for column 0 of table 0"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("table directory section"), std::string::npos);
  EXPECT_NE(message.find("byte offset"), std::string::npos);
}

TEST(CorpusIoCorruptionTest, PerColumnExtentSumSkewIsRejected) {
  Corpus corpus = MakeCorpus();
  std::string bytes = SerializeWithStats(corpus);
  const size_t pos = SensorsPerColumnOffset(bytes);
  // Each extent stays in bounds but the pair no longer tiles the blob.
  bytes[pos] = static_cast<char>(bytes[pos] - 1);
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("column size skew for table 0"), std::string::npos)
      << message;
  EXPECT_NE(message.find("columns declare"), std::string::npos);
  EXPECT_NE(message.find("byte offset"), std::string::npos);

  // The lazy opener runs the same header parse: same failure, at open.
  const std::string path = WriteTemp("colskew", bytes);
  auto lazy = OpenCorpusLazy(path);
  std::remove(path.c_str());
  ASSERT_FALSE(lazy.ok());
  EXPECT_TRUE(lazy.status().IsCorruption());
  EXPECT_NE(lazy.status().message().find("column size skew"),
            std::string::npos);
}

TEST(CorpusIoCorruptionTest, CutInsideThePerColumnExtentsNamesTheSection) {
  // The truncation fuzz above sweeps the whole image; this pins the case the
  // v3 format added — a cut landing exactly among the per-column varints.
  Corpus corpus = MakeCorpus();
  const std::string bytes = SerializeWithStats(corpus);
  const size_t pos = SensorsPerColumnOffset(bytes);
  auto loaded = DeserializeCorpus(std::string_view(bytes).substr(0, pos + 1));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("table directory section"), std::string::npos)
      << message;
  EXPECT_NE(message.find("byte offset"), std::string::npos);
}

// ---- seeded byte-flip sweep ----------------------------------------

TEST(CorpusIoCorruptionTest, SeededByteFlipsEndInCorruptionOrAnAnswer) {
  // Every byte ahead of the cell region — header, stats, table directory
  // and per-column extents — flipped with the low bit, the high bit and
  // two seeded masks, plus seeded flips inside the cell blobs. Each mutant
  // goes through the lazy open, MaterializeAll and one Discover over an
  // index built on what it decoded: it must end in kCorruption or in a
  // corpus whose query completes (and, under the sanitizer legs, without
  // a report).
  const Corpus corpus = MakeCorpus();
  const std::string bytes = SerializeWithStats(corpus);
  const size_t region_start = CellRegionStart(corpus, bytes);
  Table query("q");
  query.AddColumn("a");
  query.AddColumn("b");
  (void)query.AppendRow({"2024-01-01", "Berlin"});
  (void)query.AppendRow({"v3_1", "v3_2"});
  (void)query.AppendRow({"v11_0", " v11_4"});

  Rng rng(1723);
  const auto seeded_mask = [&rng] {
    return static_cast<uint8_t>(1 + rng.Uniform(255));
  };
  std::vector<std::pair<size_t, uint8_t>> flips;  // (offset, xor mask)
  for (size_t i = 0; i < region_start; ++i) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, seeded_mask(),
                         seeded_mask()}) {
      flips.emplace_back(i, mask);
    }
  }
  const size_t region_bytes = bytes.size() - region_start;
  for (int i = 0; i < 128; ++i) {
    flips.emplace_back(region_start + rng.Uniform(region_bytes),
                       seeded_mask());
  }

  const std::string path = testing::TempDir() + "/mate_corpus_sweep.bin";
  size_t rejected = 0;
  size_t answered = 0;
  for (const auto& [offset, mask] : flips) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ mask);
    SCOPED_TRACE("offset=" + std::to_string(offset) +
                 " mask=" + std::to_string(mask));
    ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());
    auto lazy = OpenCorpusLazy(path);
    Status verdict = lazy.status();
    if (verdict.ok()) verdict = lazy->MaterializeAll();
    if (!verdict.ok()) {
      EXPECT_TRUE(verdict.IsCorruption()) << verdict.ToString();
      ++rejected;
      continue;
    }
    SessionOptions options;
    options.corpus = std::move(*lazy);
    options.build_index = true;
    options.num_threads = 1;
    options.cache_bytes = 0;
    auto session = Session::Open(std::move(options));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    QuerySpec spec;
    spec.table = &query;
    spec.key_columns = {0, 1};
    spec.options.k = 3;
    auto result = session->Discover(spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    ++answered;
  }
  std::remove(path.c_str());
  // Flips in names, stats, deleted bitmaps and cell text leave a
  // well-formed image; flips in counts and extents do not.
  EXPECT_GT(rejected, flips.size() / 4);
  EXPECT_GT(answered, flips.size() / 4);
}

}  // namespace
}  // namespace mate
