// Session lifecycle and cache semantics: move-only ownership, Open
// validation (mismatched corpus/index pairs fail up front), QuerySpec
// validation closing the old UB paths, bit-identical cache hits, explicit
// invalidation after index edits, and cache-on vs cache-off agreement
// under the batch engine at >= 4 threads.

#include "core/session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "core/mate.h"
#include "index/index_builder.h"
#include "util/rng.h"
#include "workload/query_gen.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

static_assert(!std::is_copy_constructible_v<Session>);
static_assert(!std::is_copy_assignable_v<Session>);
static_assert(std::is_move_constructible_v<Session>);
static_assert(std::is_move_assignable_v<Session>);

// ---- deterministic fixtures ----------------------------------------

// The paper's Figure 1 lake, small enough to reason about exactly.
Corpus MakeLake() {
  Corpus corpus;
  Table t1("people_de");
  t1.AddColumn("Vorname");
  t1.AddColumn("Nachname");
  t1.AddColumn("Land");
  (void)t1.AppendRow({"Helmut", "Newton", "Germany"});
  (void)t1.AppendRow({"Muhammad", "Lee", "US"});
  (void)t1.AppendRow({"Ansel", "Adams", "UK"});
  (void)t1.AppendRow({"Muhammad", "Lee", "Germany"});
  corpus.AddTable(std::move(t1));

  Table t2("partial_match");
  t2.AddColumn("first");
  t2.AddColumn("last");
  (void)t2.AppendRow({"Muhammad", "Lee"});
  (void)t2.AppendRow({"Grace", "Hopper"});
  corpus.AddTable(std::move(t2));
  return corpus;
}

Table MakeQuery() {
  Table query("q");
  query.AddColumn("first");
  query.AddColumn("last");
  query.AddColumn("country");
  (void)query.AppendRow({"Muhammad", "Lee", "US"});
  (void)query.AppendRow({"Helmut", "Newton", "Germany"});
  (void)query.AppendRow({"Ansel", "Adams", "UK"});
  return query;
}

Session OpenLakeSession(size_t cache_bytes,
                        unsigned num_threads = 1) {
  SessionOptions options;
  options.corpus = MakeLake();
  options.build_index = true;
  options.cache_bytes = cache_bytes;
  options.num_threads = num_threads;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

QuerySpec MakeSpec(const Table* query, std::vector<ColumnId> key,
                   int k = 5) {
  QuerySpec spec;
  spec.table = query;
  spec.key_columns = std::move(key);
  spec.options.k = k;
  return spec;
}

// A heftier deterministic world (planted joins) for batch/thread tests;
// calling it twice yields two identical corpora + query sets.
struct World {
  Corpus corpus;
  std::vector<QueryCase> queries;
};

World MakeWorld() {
  World w;
  Rng rng(7);
  Vocabulary vocab = Vocabulary::Generate(120, Vocabulary::Style::kWords, 11);
  for (size_t t = 0; t < 20; ++t) {
    Table table("t" + std::to_string(t));
    size_t cols = 3 + rng.Uniform(3);
    for (size_t c = 0; c < cols; ++c) table.AddColumn("c" + std::to_string(c));
    size_t rows = 4 + rng.Uniform(16);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> cells;
      for (size_t c = 0; c < cols; ++c) {
        cells.push_back(vocab.word(rng.Uniform(vocab.size())));
      }
      (void)table.AppendRow(std::move(cells));
    }
    w.corpus.AddTable(std::move(table));
  }
  QuerySetSpec spec;
  spec.num_queries = 6;
  spec.query_rows = 20;
  spec.query_columns = 4;
  spec.key_size = 2;
  spec.planted_tables = 5;
  spec.seed = 3;
  w.queries = GenerateQueries(&w.corpus, vocab, spec);
  return w;
}

void ExpectBitIdentical(const DiscoveryResult& a, const DiscoveryResult& b,
                        bool include_runtime = false) {
  ASSERT_EQ(a.top_k.size(), b.top_k.size());
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    EXPECT_EQ(a.top_k[i].table_id, b.top_k[i].table_id);
    EXPECT_EQ(a.top_k[i].joinability, b.top_k[i].joinability);
    EXPECT_EQ(a.top_k[i].best_mapping, b.top_k[i].best_mapping);
  }
  EXPECT_EQ(a.stats.pl_items_fetched, b.stats.pl_items_fetched);
  EXPECT_EQ(a.stats.candidate_tables, b.stats.candidate_tables);
  EXPECT_EQ(a.stats.tables_evaluated, b.stats.tables_evaluated);
  EXPECT_EQ(a.stats.rows_checked, b.stats.rows_checked);
  EXPECT_EQ(a.stats.rows_skipped, b.stats.rows_skipped);
  EXPECT_EQ(a.stats.rows_sent_to_verification,
            b.stats.rows_sent_to_verification);
  EXPECT_EQ(a.stats.rows_true_positive, b.stats.rows_true_positive);
  EXPECT_EQ(a.stats.value_comparisons, b.stats.value_comparisons);
  if (include_runtime) {
    EXPECT_DOUBLE_EQ(a.stats.runtime_seconds, b.stats.runtime_seconds);
  }
}

// ---- Open lifecycle -------------------------------------------------

TEST(SessionOpenTest, RequiresExactlyOneCorpusSource) {
  {
    SessionOptions options;  // neither corpus nor corpus_path
    auto session = Session::Open(std::move(options));
    ASSERT_FALSE(session.ok());
    EXPECT_TRUE(session.status().IsInvalidArgument());
  }
  {
    SessionOptions options;
    options.corpus = MakeLake();
    options.corpus_path = "/tmp/nonexistent.corpus";
    auto session = Session::Open(std::move(options));
    ASSERT_FALSE(session.ok());
    EXPECT_TRUE(session.status().IsInvalidArgument());
  }
}

TEST(SessionOpenTest, RejectsMultipleIndexSources) {
  SessionOptions options;
  options.corpus = MakeLake();
  options.build_index = true;
  options.index_path = "/tmp/nonexistent.index";
  auto session = Session::Open(std::move(options));
  ASSERT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsInvalidArgument());
}

TEST(SessionOpenTest, MissingFilesSurfaceIOError) {
  SessionOptions options;
  options.corpus_path = "/nonexistent/dir/lake.corpus";
  auto session = Session::Open(std::move(options));
  ASSERT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsIOError()) << session.status().ToString();
}

TEST(SessionOpenTest, MismatchedCorpusAndIndexFailCorruption) {
  // Index built over the two-table lake, adopted next to a corpus with an
  // extra table: table-count skew.
  Corpus original = MakeLake();
  auto index = BuildIndex(original, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());

  Corpus bigger = MakeLake();
  Table extra("extra");
  extra.AddColumn("a");
  (void)extra.AppendRow({"x"});
  bigger.AddTable(std::move(extra));

  SessionOptions options;
  options.corpus = std::move(bigger);
  options.index = std::move(*index);
  auto session = Session::Open(std::move(options));
  ASSERT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsCorruption()) << session.status().ToString();
}

TEST(SessionOpenTest, RowCountSkewFailsCorruption) {
  Corpus original = MakeLake();
  auto index = BuildIndex(original, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());

  Corpus edited = MakeLake();
  (void)edited.mutable_table(0)->AppendRow({"New", "Row", "Nowhere"});

  SessionOptions options;
  options.corpus = std::move(edited);
  options.index = std::move(*index);
  auto session = Session::Open(std::move(options));
  ASSERT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsCorruption()) << session.status().ToString();
}

TEST(SessionOpenTest, ValidateOffAdmitsSkewedPair) {
  // The escape hatch for callers who know better (e.g. partially indexed
  // corpora in tests); queries on the skewed tail are their problem.
  Corpus original = MakeLake();
  auto index = BuildIndex(original, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  Corpus bigger = MakeLake();
  Table extra("extra");
  extra.AddColumn("a");
  (void)extra.AppendRow({"x"});
  bigger.AddTable(std::move(extra));

  SessionOptions options;
  options.corpus = std::move(bigger);
  options.index = std::move(*index);
  options.validate = false;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
}

TEST(SessionOpenTest, MoveTransfersOwnership) {
  Session a = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  auto before = a.Discover(MakeSpec(&query, {0, 1, 2}));
  ASSERT_TRUE(before.ok());

  Session b = std::move(a);
  auto after = b.Discover(MakeSpec(&query, {0, 1, 2}));
  ASSERT_TRUE(after.ok());
  ExpectBitIdentical(*before, *after, /*include_runtime=*/true);  // cache hit
  EXPECT_EQ(b.cache_stats().hits, 1u);
}

TEST(SessionOpenTest, CorpusOnlySessionRejectsDiscover) {
  SessionOptions options;
  options.corpus = MakeLake();
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->has_index());
  EXPECT_GT(session->corpus_stats().num_rows, 0u);  // computed by scan
  const Table query = MakeQuery();
  auto result = session->Discover(MakeSpec(&query, {0, 1}));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(SessionOpenTest, SaveAndReopenRoundTrips) {
  const std::string corpus_path = "/tmp/mate_session_test.corpus";
  const std::string index_path = "/tmp/mate_session_test.index";
  const Table query = MakeQuery();
  DiscoveryResult original;
  {
    Session session = OpenLakeSession(/*cache_bytes=*/0);
    auto result = session.Discover(MakeSpec(&query, {0, 1, 2}));
    ASSERT_TRUE(result.ok());
    original = *result;
    ASSERT_TRUE(session.Save(corpus_path, index_path).ok());
  }
  SessionOptions reopen;
  reopen.corpus_path = corpus_path;
  reopen.index_path = index_path;
  auto session = Session::Open(std::move(reopen));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->hash_family(), HashFamily::kXash);
  auto result = session->Discover(MakeSpec(&query, {0, 1, 2}));
  ASSERT_TRUE(result.ok());
  ExpectBitIdentical(original, *result);
  std::remove(corpus_path.c_str());
  std::remove(index_path.c_str());
}

// ---- QuerySpec validation -------------------------------------------

class SessionValidationTest : public testing::Test {
 protected:
  SessionValidationTest()
      : session_(OpenLakeSession(/*cache_bytes=*/1 << 20)),
        query_(MakeQuery()) {}

  void ExpectInvalid(const QuerySpec& spec, const std::string& needle) {
    Status status = session_.ValidateQuery(spec);
    ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << "message '" << status.message() << "' does not name '" << needle
        << "'";
    // Discover and DiscoverBatch agree with ValidateQuery.
    auto single = session_.Discover(spec);
    EXPECT_TRUE(single.status().IsInvalidArgument());
    auto batch = session_.DiscoverBatch({spec});
    EXPECT_TRUE(batch.status().IsInvalidArgument());
  }

  Session session_;
  Table query_;
};

TEST_F(SessionValidationTest, NullTable) {
  ExpectInvalid(MakeSpec(nullptr, {0}), "null");
}

TEST_F(SessionValidationTest, EmptyKeyColumns) {
  ExpectInvalid(MakeSpec(&query_, {}), "empty");
}

TEST_F(SessionValidationTest, OutOfRangeKeyColumn) {
  ExpectInvalid(MakeSpec(&query_, {0, 7}), "7");
  ExpectInvalid(MakeSpec(&query_, {kInvalidColumnId}),
                std::to_string(kInvalidColumnId));
}

TEST_F(SessionValidationTest, DuplicateKeyColumn) {
  ExpectInvalid(MakeSpec(&query_, {1, 0, 1}), "duplicate key column 1");
}

TEST_F(SessionValidationTest, NonPositiveK) {
  ExpectInvalid(MakeSpec(&query_, {0, 1}, /*k=*/0), "k must be positive");
  ExpectInvalid(MakeSpec(&query_, {0, 1}, /*k=*/-3), "-3");
}

TEST_F(SessionValidationTest, UnknownExcludeTable) {
  QuerySpec spec = MakeSpec(&query_, {0, 1});
  spec.options.exclude_tables = {0, 99};
  ExpectInvalid(spec, "exclude_tables id 99");
}

TEST_F(SessionValidationTest, UnknownRestrictTable) {
  QuerySpec spec = MakeSpec(&query_, {0, 1});
  spec.options.restrict_tables = {41};
  ExpectInvalid(spec, "restrict_tables id 41");
}

TEST_F(SessionValidationTest, BatchErrorNamesFailingPosition) {
  std::vector<QuerySpec> specs = {MakeSpec(&query_, {0, 1}),
                                  MakeSpec(&query_, {0, 0})};
  auto batch = session_.DiscoverBatch(specs);
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.status().message().find("query 1"), std::string::npos)
      << batch.status().ToString();
}

TEST_F(SessionValidationTest, ValidSpecPasses) {
  EXPECT_TRUE(session_.ValidateQuery(MakeSpec(&query_, {0, 1, 2})).ok());
  QuerySpec spec = MakeSpec(&query_, {2, 0});
  spec.options.exclude_tables = {1};
  spec.options.restrict_tables = {0};
  EXPECT_TRUE(session_.ValidateQuery(spec).ok());
}

// ---- cache semantics ------------------------------------------------

TEST(SessionCacheTest, DiscoverMatchesRawEngine) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  auto via_session = session.Discover(MakeSpec(&query, {0, 1, 2}));
  ASSERT_TRUE(via_session.ok());

  MateSearch raw(&session.corpus(), &session.index());
  DiscoveryOptions options;
  options.k = 5;
  DiscoveryResult reference = raw.Discover(query, {0, 1, 2}, options);
  ExpectBitIdentical(reference, *via_session);
}

TEST(SessionCacheTest, HitReturnsBitIdenticalResult) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  auto first = session.Discover(MakeSpec(&query, {0, 1, 2}));
  auto second = session.Discover(MakeSpec(&query, {0, 1, 2}));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Verbatim copy: even the recorded runtime is the original's.
  ExpectBitIdentical(*first, *second, /*include_runtime=*/true);
  const ResultCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SessionCacheTest, DifferentOptionsDoNotCollide) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  auto k5 = session.Discover(MakeSpec(&query, {0, 1}, /*k=*/5));
  auto k1 = session.Discover(MakeSpec(&query, {0, 1}, /*k=*/1));
  QuerySpec excl = MakeSpec(&query, {0, 1}, /*k=*/5);
  excl.options.exclude_tables = {0};
  auto excluded = session.Discover(excl);
  ASSERT_TRUE(k5.ok());
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(excluded.ok());
  EXPECT_EQ(session.cache_stats().misses, 3u);  // three distinct fingerprints
  EXPECT_LE(k1->top_k.size(), 1u);
  for (const TableResult& tr : excluded->top_k) {
    EXPECT_NE(tr.table_id, 0u);
  }
}

TEST(SessionCacheTest, SemiJoinSwitchMissesTheCache) {
  // The semi-join never changes top_k, but a result carries the work
  // counters it was computed with, so flipping the switch must miss.
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  QuerySpec on = MakeSpec(&query, {0, 1});
  QuerySpec off = MakeSpec(&query, {0, 1});
  off.options.use_semi_join = false;
  auto with = session.Discover(on);
  auto without = session.Discover(off);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(session.cache_stats().misses, 2u);
  EXPECT_EQ(session.cache_stats().hits, 0u);
  EXPECT_EQ(without->stats.rows_skipped, 0u);
  ASSERT_EQ(with->top_k.size(), without->top_k.size());
  for (size_t i = 0; i < with->top_k.size(); ++i) {
    EXPECT_EQ(with->top_k[i].table_id, without->top_k[i].table_id);
    EXPECT_EQ(with->top_k[i].joinability, without->top_k[i].joinability);
  }
  auto again = session.Discover(off);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(session.cache_stats().hits, 1u);
  ExpectBitIdentical(*without, *again, /*include_runtime=*/true);
}

TEST(SessionCacheTest, ExcludeOrderInsensitiveFingerprint) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  QuerySpec a = MakeSpec(&query, {0, 1});
  a.options.exclude_tables = {0, 1};
  QuerySpec b = MakeSpec(&query, {0, 1});
  b.options.exclude_tables = {1, 0};  // set semantics -> same fingerprint
  ASSERT_TRUE(session.Discover(a).ok());
  ASSERT_TRUE(session.Discover(b).ok());
  EXPECT_EQ(session.cache_stats().hits, 1u);
}

TEST(SessionCacheTest, ExecutionKnobsDoNotChangeTheFingerprint) {
  // Regression (PR 3): intra_query_threads / intra_query_shards and the
  // session's pool width are execution-only knobs. The same logical query
  // must hit the cache at any parallelism setting — and the hit serves the
  // originally computed result verbatim, execution shape included.
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20,
                                    /*num_threads=*/1);
  const Table query = MakeQuery();
  QuerySpec serial = MakeSpec(&query, {0, 1});
  serial.intra_query_threads = 1;
  auto first = session.Discover(serial);
  ASSERT_TRUE(first.ok());

  QuerySpec sharded = MakeSpec(&query, {0, 1});
  sharded.intra_query_threads = 8;
  sharded.intra_query_shards = 3;
  session.SetNumThreads(4);  // pool width must not enter the key either
  auto second = session.Discover(sharded);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session.cache_stats().hits, 1u);
  EXPECT_EQ(session.cache_stats().misses, 1u);
  ExpectBitIdentical(*first, *second, /*include_runtime=*/true);
  EXPECT_EQ(second->stats.shards_used, first->stats.shards_used);
  EXPECT_EQ(second->stats.fanout_threads, first->stats.fanout_threads);

  // Auto mode (the default spec) fingerprints identically as well.
  auto third = session.Discover(MakeSpec(&query, {0, 1}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(session.cache_stats().hits, 2u);
}

TEST(SessionCacheTest, QueryContentChangeMissesCache) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  Table query = MakeQuery();
  ASSERT_TRUE(session.Discover(MakeSpec(&query, {0, 1})).ok());
  ASSERT_TRUE(query.SetCell(0, 0, "Somebody").ok());
  ASSERT_TRUE(session.Discover(MakeSpec(&query, {0, 1})).ok());
  EXPECT_EQ(session.cache_stats().misses, 2u);  // fingerprint covers cells
  EXPECT_EQ(session.cache_stats().hits, 0u);
}

TEST(SessionCacheTest, InvalidateAfterIndexEditServesFreshResults) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  const QuerySpec spec = MakeSpec(&query, {0, 1});
  auto before = session.Discover(spec);
  ASSERT_TRUE(before.ok());
  // people_de matches all 3 query combos, partial_match exactly 1.
  ASSERT_EQ(before->JoinabilityAt(0), 3);
  ASSERT_EQ(before->JoinabilityAt(1), 1);

  // Plant a second matching combo in partial_match and index it (the §5.4
  // InsertRow maintenance path).
  auto row = session.mutable_corpus()->mutable_table(1)->AppendRow(
      {"Ansel", "Adams"});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(
      session.mutable_index()->InsertRow(session.corpus(), 1, *row).ok());

  // Without invalidation the stale pre-edit result is served verbatim.
  auto stale = session.Discover(spec);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->JoinabilityAt(1), 1);

  session.InvalidateCache();
  auto fresh = session.Discover(spec);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->JoinabilityAt(1), 2);
  EXPECT_EQ(session.cache_stats().entries, 1u);  // refilled after the edit
}

TEST(SessionCacheTest, ResetHashInvalidatesImplicitly) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  ASSERT_TRUE(session.Discover(MakeSpec(&query, {0, 1})).ok());
  EXPECT_EQ(session.cache_stats().entries, 1u);
  ASSERT_TRUE(session.ResetHash(HashFamily::kBloom, 128).ok());
  EXPECT_EQ(session.hash_family(), HashFamily::kBloom);
  EXPECT_EQ(session.cache_stats().entries, 0u);
  // Scores are hash-independent: the fresh run agrees on the ranking.
  auto result = session.Discover(MakeSpec(&query, {0, 1}));
  ASSERT_TRUE(result.ok());
}

// ---- tenant partitions ----------------------------------------------

TEST(SessionTenantTest, PartitionsAreIndependentThroughDiscover) {
  // The same query under two tenants computes twice (no cross-tenant
  // leakage) and each tenant's repeat hits only its own partition.
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  QuerySpec acme = MakeSpec(&query, {0, 1});
  acme.tenant = "acme";
  QuerySpec globex = MakeSpec(&query, {0, 1});
  globex.tenant = "globex";

  auto a1 = session.Discover(acme);
  auto g1 = session.Discover(globex);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(g1.ok());
  ExpectBitIdentical(*a1, *g1);
  EXPECT_EQ(session.cache_stats().misses, 2u);  // no sharing across tenants
  EXPECT_EQ(session.cache_partition_stats("acme").entries, 1u);
  EXPECT_EQ(session.cache_partition_stats("globex").entries, 1u);

  auto a2 = session.Discover(acme);
  ASSERT_TRUE(a2.ok());
  ExpectBitIdentical(*a1, *a2, /*include_runtime=*/true);  // cached verbatim
  EXPECT_EQ(session.cache_partition_stats("acme").hits, 1u);
  EXPECT_EQ(session.cache_partition_stats("globex").hits, 0u);
}

TEST(SessionTenantTest, InvalidateCacheWithTenantIsScoped) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  QuerySpec acme = MakeSpec(&query, {0, 1});
  acme.tenant = "acme";
  QuerySpec globex = MakeSpec(&query, {0, 1});
  globex.tenant = "globex";
  ASSERT_TRUE(session.Discover(acme).ok());
  ASSERT_TRUE(session.Discover(globex).ok());

  session.InvalidateCache("acme");
  EXPECT_EQ(session.cache_partition_stats("acme").entries, 0u);
  EXPECT_EQ(session.cache_partition_stats("globex").entries, 1u);

  // acme recomputes, globex still hits.
  ASSERT_TRUE(session.Discover(acme).ok());
  EXPECT_EQ(session.cache_partition_stats("acme").misses, 2u);
  ASSERT_TRUE(session.Discover(globex).ok());
  EXPECT_EQ(session.cache_partition_stats("globex").hits, 1u);
}

TEST(SessionTenantTest, InvalidateCacheAndResetHashDropEveryPartition) {
  // Index-wide events (explicit full invalidation, re-keying the hash)
  // invalidate all tenants alike — stale results are stale for everyone.
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  const Table query = MakeQuery();
  for (const char* tenant : {"acme", "globex", ""}) {
    QuerySpec spec = MakeSpec(&query, {0, 1});
    spec.tenant = tenant;
    ASSERT_TRUE(session.Discover(spec).ok());
  }
  EXPECT_EQ(session.cache_stats().entries, 3u);

  session.InvalidateCache();
  EXPECT_EQ(session.cache_stats().entries, 0u);
  EXPECT_EQ(session.cache_partition_stats("acme").entries, 0u);

  for (const char* tenant : {"acme", "globex", ""}) {
    QuerySpec spec = MakeSpec(&query, {0, 1});
    spec.tenant = tenant;
    ASSERT_TRUE(session.Discover(spec).ok());
  }
  ASSERT_TRUE(session.ResetHash(HashFamily::kBloom, 128).ok());
  EXPECT_EQ(session.cache_stats().entries, 0u);
  EXPECT_EQ(session.cache_partition_stats("globex").entries, 0u);
}

TEST(SessionTenantTest, ConfigureCachePartitionBoundsOneTenant) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20);
  session.ConfigureCachePartition("tiny", 64);  // below any entry's size
  const Table query = MakeQuery();
  QuerySpec tiny = MakeSpec(&query, {0, 1});
  tiny.tenant = "tiny";
  QuerySpec roomy = MakeSpec(&query, {0, 1});
  roomy.tenant = "roomy";
  ASSERT_TRUE(session.Discover(tiny).ok());
  ASSERT_TRUE(session.Discover(roomy).ok());
  // The bounded tenant can't retain its entry; the default-budget one can.
  EXPECT_EQ(session.cache_partition_stats("tiny").entries, 0u);
  EXPECT_EQ(session.cache_partition_stats("tiny").capacity_bytes, 64u);
  EXPECT_EQ(session.cache_partition_stats("roomy").entries, 1u);
}

TEST(SessionCacheTest, DuplicateSpecsInOneBatchComputeOnce) {
  Session session = OpenLakeSession(/*cache_bytes=*/1 << 20,
                                    /*num_threads=*/4);
  const Table query = MakeQuery();
  std::vector<QuerySpec> specs = {MakeSpec(&query, {0, 1}),
                                  MakeSpec(&query, {0, 1}),
                                  MakeSpec(&query, {0, 1, 2})};
  auto batch = session.DiscoverBatch(specs);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stats.cache_hits, 1u);    // the in-batch duplicate
  EXPECT_EQ(batch->stats.cache_misses, 2u);  // two distinct fingerprints
  ExpectBitIdentical(batch->results[0], batch->results[1],
                     /*include_runtime=*/true);

  auto again = session.DiscoverBatch(specs);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache_hits, 3u);  // everything cached now
  EXPECT_EQ(again->stats.cache_misses, 0u);
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectBitIdentical(batch->results[i], again->results[i],
                       /*include_runtime=*/true);
  }
}

TEST(SessionCacheTest, CacheOnAndOffAgreeUnderBatchAtFourThreads) {
  // Two sessions over identical deterministic worlds; a repeated-query
  // stream through each. Cached and uncached results must be bit-identical
  // at >= 4 threads (ASan/TSan builds make this the shared-pool canary).
  World world_a = MakeWorld();
  World world_b = MakeWorld();

  SessionOptions cached_options;
  cached_options.corpus = std::move(world_a.corpus);
  cached_options.build_index = true;
  cached_options.num_threads = 4;
  cached_options.cache_bytes = 32 << 20;
  auto cached = Session::Open(std::move(cached_options));
  ASSERT_TRUE(cached.ok());

  SessionOptions uncached_options;
  uncached_options.corpus = std::move(world_b.corpus);
  uncached_options.build_index = true;
  uncached_options.num_threads = 4;
  uncached_options.cache_bytes = 0;
  auto uncached = Session::Open(std::move(uncached_options));
  ASSERT_TRUE(uncached.ok());

  // Stream with heavy repetition: every query appears three times.
  auto make_stream = [](const World& world) {
    std::vector<QuerySpec> specs;
    for (int round = 0; round < 3; ++round) {
      for (const QueryCase& qc : world.queries) {
        QuerySpec spec;
        spec.table = &qc.query;
        spec.key_columns = qc.key_columns;
        spec.options.k = 5;
        specs.push_back(std::move(spec));
      }
    }
    return specs;
  };
  const std::vector<QuerySpec> stream_a = make_stream(world_a);
  const std::vector<QuerySpec> stream_b = make_stream(world_b);

  auto warm = cached->DiscoverBatch(stream_a);
  auto cold = uncached->DiscoverBatch(stream_b);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(warm->results.size(), cold->results.size());
  for (size_t i = 0; i < warm->results.size(); ++i) {
    ExpectBitIdentical(cold->results[i], warm->results[i]);
  }
  // Two thirds of the stream are repeats -> all hits.
  EXPECT_EQ(warm->stats.cache_misses, world_a.queries.size());
  EXPECT_EQ(warm->stats.cache_hits, 2 * world_a.queries.size());
  EXPECT_EQ(cold->stats.cache_hits, 0u);
  EXPECT_EQ(cold->stats.cache_misses, 0u);

  // A second identical batch is served entirely from the cache.
  auto warm2 = cached->DiscoverBatch(stream_a);
  ASSERT_TRUE(warm2.ok());
  EXPECT_EQ(warm2->stats.cache_misses, 0u);
  for (size_t i = 0; i < warm2->results.size(); ++i) {
    ExpectBitIdentical(cold->results[i], warm2->results[i]);
  }
}

TEST(SessionCacheTest, TinyBudgetEvictsInsteadOfGrowing) {
  SessionOptions options;
  options.corpus = MakeLake();
  options.build_index = true;
  options.cache_bytes = 1024;  // a couple of entries at most
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok());
  const Table query = MakeQuery();
  for (int k = 1; k <= 10; ++k) {
    ASSERT_TRUE(session->Discover(MakeSpec(&query, {0, 1}, k)).ok());
  }
  const ResultCacheStats stats = session->cache_stats();
  EXPECT_LE(stats.bytes, 1024u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(SessionCacheTest, ConfigureCacheTogglesCaching) {
  Session session = OpenLakeSession(/*cache_bytes=*/0);
  EXPECT_FALSE(session.cache_enabled());
  const Table query = MakeQuery();
  ASSERT_TRUE(session.Discover(MakeSpec(&query, {0, 1})).ok());
  EXPECT_EQ(session.cache_stats().misses, 0u);  // no cache, no traffic

  session.ConfigureCache(1 << 20);
  EXPECT_TRUE(session.cache_enabled());
  ASSERT_TRUE(session.Discover(MakeSpec(&query, {0, 1})).ok());
  ASSERT_TRUE(session.Discover(MakeSpec(&query, {0, 1})).ok());
  EXPECT_EQ(session.cache_stats().hits, 1u);
}

TEST(SessionPoolTest, SetNumThreadsKeepsResultsIdentical) {
  World world = MakeWorld();
  SessionOptions options;
  options.corpus = std::move(world.corpus);
  options.build_index = true;
  options.num_threads = 1;
  options.cache_bytes = 0;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok());

  std::vector<QuerySpec> specs;
  for (const QueryCase& qc : world.queries) {
    QuerySpec spec;
    spec.table = &qc.query;
    spec.key_columns = qc.key_columns;
    spec.options.k = 5;
    specs.push_back(std::move(spec));
  }
  auto serial = session->DiscoverBatch(specs);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(session->num_threads(), 1u);

  session->SetNumThreads(4);
  EXPECT_EQ(session->num_threads(), 4u);
  auto parallel = session->DiscoverBatch(specs);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->results.size(), parallel->results.size());
  for (size_t i = 0; i < serial->results.size(); ++i) {
    ExpectBitIdentical(serial->results[i], parallel->results[i]);
  }
}

}  // namespace
}  // namespace mate
