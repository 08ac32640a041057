// Batch discovery (core/discovery_engine.h) through its one entry point,
// mate::Session: DiscoverBatch and RunBatch fan independent queries out
// over the session pool. Every session here runs with the result cache off,
// so a batch computes every query and must match the serial MateSearch loop
// in top-k and every counter at any thread count.

#include "core/discovery_engine.h"

#include <gtest/gtest.h>

#include "core/session.h"
#include "util/rng.h"
#include "workload/query_gen.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

struct Fixture {
  std::vector<QueryCase> queries;
  Session session;
};

// A corpus with planted joins so the batch has nontrivial top-k lists,
// pruning activity, and row-filter traffic, indexed by an uncached session
// with a `num_threads`-wide pool.
Fixture MakeFixture(unsigned num_threads, size_t num_queries = 8) {
  Corpus corpus;
  Rng rng(7);
  Vocabulary vocab = Vocabulary::Generate(120, Vocabulary::Style::kWords, 11);
  for (size_t t = 0; t < 24; ++t) {
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
    corpus.AddTable(std::move(table));
  }
  QuerySetSpec spec;
  spec.num_queries = num_queries;
  spec.query_rows = 20;
  spec.query_columns = 4;
  spec.key_size = 2;
  spec.planted_tables = 6;
  spec.seed = 3;
  std::vector<QueryCase> queries = GenerateQueries(&corpus, vocab, spec);
  SessionOptions options;
  options.corpus = std::move(corpus);
  options.build_index = true;
  options.num_threads = num_threads;
  options.cache_bytes = 0;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return Fixture{std::move(queries), std::move(*session)};
}

std::vector<QuerySpec> ToSpecs(const std::vector<QueryCase>& queries,
                               const DiscoveryOptions& options) {
  std::vector<QuerySpec> specs;
  for (const QueryCase& qc : queries) {
    QuerySpec spec;
    spec.table = &qc.query;
    spec.key_columns = qc.key_columns;
    spec.options = options;
    specs.push_back(std::move(spec));
  }
  return specs;
}

// Everything except the wall-clock fields must match the serial path.
void ExpectSameResult(const DiscoveryResult& serial,
                      const DiscoveryResult& batched, size_t query_idx) {
  ASSERT_EQ(serial.top_k.size(), batched.top_k.size()) << query_idx;
  for (size_t i = 0; i < serial.top_k.size(); ++i) {
    EXPECT_EQ(serial.top_k[i].table_id, batched.top_k[i].table_id)
        << query_idx;
    EXPECT_EQ(serial.top_k[i].joinability, batched.top_k[i].joinability)
        << query_idx;
    EXPECT_EQ(serial.top_k[i].best_mapping, batched.top_k[i].best_mapping)
        << query_idx;
  }
  EXPECT_EQ(serial.stats.pl_items_fetched, batched.stats.pl_items_fetched);
  EXPECT_EQ(serial.stats.candidate_tables, batched.stats.candidate_tables);
  EXPECT_EQ(serial.stats.tables_evaluated, batched.stats.tables_evaluated);
  EXPECT_EQ(serial.stats.rows_checked, batched.stats.rows_checked);
  EXPECT_EQ(serial.stats.rows_skipped, batched.stats.rows_skipped);
  EXPECT_EQ(serial.stats.rows_sent_to_verification,
            batched.stats.rows_sent_to_verification);
  EXPECT_EQ(serial.stats.rows_true_positive, batched.stats.rows_true_positive);
  EXPECT_EQ(serial.stats.value_comparisons, batched.stats.value_comparisons);
}

void CheckBatchMatchesSequential(unsigned num_threads) {
  Fixture f = MakeFixture(num_threads);
  DiscoveryOptions options;
  options.k = 5;

  const MateSearch serial_engine(&f.session.corpus(), &f.session.index());
  std::vector<DiscoveryResult> serial;
  for (const QueryCase& qc : f.queries) {
    serial.push_back(serial_engine.Discover(qc.query, qc.key_columns, options));
  }

  auto batch = f.session.DiscoverBatch(ToSpecs(f.queries, options));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  ASSERT_EQ(batch->results.size(), serial.size());
  for (size_t q = 0; q < serial.size(); ++q) {
    ExpectSameResult(serial[q], batch->results[q], q);
  }

  // Aggregates are index-ordered sums, so they are deterministic too.
  uint64_t pl = 0, verified = 0, tp = 0;
  for (const DiscoveryResult& r : serial) {
    pl += r.stats.pl_items_fetched;
    verified += r.stats.rows_sent_to_verification;
    tp += r.stats.rows_true_positive;
  }
  EXPECT_EQ(batch->stats.queries, serial.size());
  EXPECT_EQ(batch->stats.pl_items_fetched, pl);
  EXPECT_EQ(batch->stats.rows_sent_to_verification, verified);
  EXPECT_EQ(batch->stats.rows_true_positive, tp);
  EXPECT_EQ(batch->stats.cache_hits + batch->stats.cache_misses, 0u);
  EXPECT_GT(batch->stats.wall_seconds, 0.0);
  EXPECT_GE(batch->stats.latency_max_s, batch->stats.latency_p50_s);
}

TEST(DiscoveryEngineTest, BatchMatchesSequentialOneThread) {
  CheckBatchMatchesSequential(1);
}

TEST(DiscoveryEngineTest, BatchMatchesSequentialFourThreads) {
  CheckBatchMatchesSequential(4);
}

TEST(DiscoveryEngineTest, BatchMatchesSequentialHardwareThreads) {
  CheckBatchMatchesSequential(0);  // 0 = hardware concurrency
}

TEST(DiscoveryEngineTest, EmptyBatch) {
  Fixture f = MakeFixture(4, 1);
  auto batch = f.session.DiscoverBatch({});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->results.empty());
  EXPECT_EQ(batch->stats.queries, 0u);
  EXPECT_EQ(batch->stats.QueriesPerSecond(), 0.0);  // no inf/NaN on 0 queries
  EXPECT_EQ(batch->stats.latency_p99_s, 0.0);

  BatchResult generic = f.session.RunBatch(0, [](size_t) -> DiscoveryResult {
    ADD_FAILURE() << "an empty batch runs nothing";
    return {};
  });
  EXPECT_TRUE(generic.results.empty());
  EXPECT_EQ(generic.stats.queries, 0u);
}

TEST(DiscoveryEngineTest, KZeroYieldsEmptyTopKPerQuery) {
  Fixture f = MakeFixture(2, 4);
  DiscoveryOptions options;
  options.k = 0;
  // The generic fan-out runs what it is given: k = 0 is an empty top-k.
  const MateSearch search(&f.session.corpus(), &f.session.index());
  BatchResult batch = f.session.RunBatch(f.queries.size(), [&](size_t i) {
    return search.Discover(f.queries[i].query, f.queries[i].key_columns,
                           options);
  });
  ASSERT_EQ(batch.results.size(), f.queries.size());
  for (const DiscoveryResult& r : batch.results) {
    EXPECT_TRUE(r.top_k.empty());
  }
  EXPECT_EQ(batch.stats.queries, f.queries.size());
  // DiscoverBatch validates first and names the offending query.
  auto validated = f.session.DiscoverBatch(ToSpecs(f.queries, options));
  ASSERT_FALSE(validated.ok());
  EXPECT_TRUE(validated.status().IsInvalidArgument());
  EXPECT_NE(validated.status().message().find("query 0"), std::string::npos);
}

TEST(DiscoveryEngineTest, GenericBatchKeepsResultsIndexAligned) {
  // Slot i must hold run_one(i)'s result regardless of which worker ran it.
  Fixture f = MakeFixture(4, 1);
  const size_t n = 64;
  BatchResult batch = f.session.RunBatch(n, [](size_t i) {
    DiscoveryResult r;
    TableResult tr;
    tr.table_id = static_cast<TableId>(i);
    tr.joinability = static_cast<int64_t>(i);
    r.top_k.push_back(tr);
    r.stats.rows_checked = i;
    r.stats.rows_skipped = 2 * i;
    return r;
  });
  ASSERT_EQ(batch.results.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(batch.results[i].top_k.size(), 1u);
    EXPECT_EQ(batch.results[i].top_k[0].joinability,
              static_cast<int64_t>(i));
  }
  EXPECT_EQ(batch.stats.rows_checked, n * (n - 1) / 2);
  EXPECT_EQ(batch.stats.rows_skipped, n * (n - 1));
  EXPECT_EQ(batch.stats.num_threads, 4u);
}

TEST(DiscoveryEngineTest, RunnerSystemsAgreeAcrossThreadCounts) {
  // The bench runners' systems ride the same fan-out; spot-check an
  // SCR-shaped option set through DiscoverBatch on a serial pool and a
  // four-worker one.
  Fixture f = MakeFixture(1, 6);
  DiscoveryOptions options;
  options.k = 3;
  options.use_row_filter = false;  // SCR shape
  const std::vector<QuerySpec> specs = ToSpecs(f.queries, options);
  auto a = f.session.DiscoverBatch(specs);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  f.session.SetNumThreads(4);
  auto b = f.session.DiscoverBatch(specs);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->stats.num_threads, 1u);
  EXPECT_EQ(b->stats.num_threads, 4u);
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t q = 0; q < a->results.size(); ++q) {
    ExpectSameResult(a->results[q], b->results[q], q);
  }
}

}  // namespace
}  // namespace mate
