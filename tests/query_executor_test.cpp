// Determinism contract of the intra-query executor: `top_k` is
// bit-identical to serial MateSearch::Discover at every shard x thread
// combination, fetch-side counters match serial exactly, and for a fixed
// shard count the full stats are deterministic at any thread count.

#include "core/query_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/init_column.h"
#include "core/joinability.h"
#include "core/mate.h"
#include "core/session.h"
#include "hash/hash_registry.h"
#include "index/index_builder.h"
#include "index/index_shards.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace mate {
namespace {

// 40 small tables with heavy joinability ties: table t matches the first
// 1 + (t % 5) query combos, so every joinability level is shared by eight
// tables and the top-k boundary always cuts through a tie (id tie-break).
constexpr size_t kNumTables = 40;

Table MakeQuery() {
  Table q("q");
  q.AddColumn("first");
  q.AddColumn("second");
  for (int i = 0; i < 10; ++i) {
    (void)q.AppendRow({"k" + std::to_string(i), "v" + std::to_string(i)});
  }
  return q;
}

Corpus MakeTieCorpus() {
  Corpus corpus;
  for (size_t t = 0; t < kNumTables; ++t) {
    Table table("t" + std::to_string(t));
    table.AddColumn("a");
    table.AddColumn("b");
    table.AddColumn("c");
    const size_t joinability = 1 + (t % 5);
    for (size_t i = 0; i < joinability; ++i) {
      (void)table.AppendRow({"k" + std::to_string(i),
                             "v" + std::to_string(i),
                             "pad" + std::to_string(t)});
    }
    // Noise rows sharing single values but never a full combo.
    (void)table.AppendRow({"k0", "v9", "noise"});
    (void)table.AppendRow({"own" + std::to_string(t), "z", "noise"});
    corpus.AddTable(std::move(table));
  }
  return corpus;
}

std::unique_ptr<InvertedIndex> Build(const Corpus& corpus) {
  auto index = BuildIndex(corpus, IndexBuildOptions{});
  EXPECT_TRUE(index.ok());
  return std::move(*index);
}

void ExpectSameResult(const DiscoveryResult& expected,
                      const DiscoveryResult& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.top_k.size(), actual.top_k.size()) << label;
  for (size_t i = 0; i < expected.top_k.size(); ++i) {
    EXPECT_EQ(expected.top_k[i].table_id, actual.top_k[i].table_id)
        << label << " rank " << i;
    EXPECT_EQ(expected.top_k[i].joinability, actual.top_k[i].joinability)
        << label << " rank " << i;
    EXPECT_EQ(expected.top_k[i].best_mapping, actual.top_k[i].best_mapping)
        << label << " rank " << i;
  }
}

// Work counters must agree field-by-field (used for the fixed-shard-count,
// varying-thread-count determinism check).
void ExpectSameWorkStats(const DiscoveryStats& a, const DiscoveryStats& b,
                         const std::string& label) {
  EXPECT_EQ(a.pl_items_fetched, b.pl_items_fetched) << label;
  EXPECT_EQ(a.candidate_tables, b.candidate_tables) << label;
  EXPECT_EQ(a.tables_evaluated, b.tables_evaluated) << label;
  EXPECT_EQ(a.tables_pruned_rule1, b.tables_pruned_rule1) << label;
  EXPECT_EQ(a.tables_pruned_rule2, b.tables_pruned_rule2) << label;
  EXPECT_EQ(a.rows_checked, b.rows_checked) << label;
  EXPECT_EQ(a.rows_skipped, b.rows_skipped) << label;
  EXPECT_EQ(a.rows_sent_to_verification, b.rows_sent_to_verification)
      << label;
  EXPECT_EQ(a.rows_true_positive, b.rows_true_positive) << label;
  EXPECT_EQ(a.value_comparisons, b.value_comparisons) << label;
}

// What the fetch of one shard must produce, computed straight from the
// posting lists: the items of every init value in [range.begin,
// range.end), and the candidate tables (those left with an item after the
// exclude/restrict filters) in evaluation order — item count desc, table
// id asc. Expects InitColumnStrategy::kColumnOrder, so the init values are
// the distinct normalized first-key values of the rows with a full key.
struct FetchReference {
  uint64_t pl_items = 0;
  std::vector<TableId> order;
};

FetchReference ReferenceFetch(const InvertedIndex& index, const Table& query,
                              const std::vector<ColumnId>& keys,
                              const DiscoveryOptions& options,
                              const ShardRange& range) {
  std::set<std::string> init_values;
  for (RowId r = 0; r < query.NumRows(); ++r) {
    const bool full = std::none_of(keys.begin(), keys.end(), [&](ColumnId c) {
      return Trim(query.cell(r, c)).empty();
    });
    if (full) init_values.insert(NormalizeValue(query.cell(r, keys[0])));
  }
  const std::set<TableId> excluded(options.exclude_tables.begin(),
                                   options.exclude_tables.end());
  const std::set<TableId> restricted(options.restrict_tables.begin(),
                                     options.restrict_tables.end());
  FetchReference ref;
  std::map<TableId, size_t> items;
  for (const std::string& value : init_values) {
    for (const PostingEntry& e : index.Lookup(value)) {
      if (e.table_id < range.begin || e.table_id >= range.end) continue;
      ++ref.pl_items;
      if (excluded.count(e.table_id) ||
          (!restricted.empty() && !restricted.count(e.table_id))) {
        continue;
      }
      ++items[e.table_id];
    }
  }
  for (const auto& [table, count] : items) ref.order.push_back(table);
  std::stable_sort(ref.order.begin(), ref.order.end(),
                   [&items](TableId a, TableId b) {
                     return items[a] > items[b];
                   });
  return ref;
}

// Per shard track (tid), the tables whose row loop ran, in the order they
// ran — one "row_loop" span per evaluated table.
std::map<uint64_t, std::vector<TableId>> EvaluationOrder(
    const QueryTrace& trace) {
  std::map<uint64_t, std::vector<TableId>> order;
  for (const TraceSpan& span : trace.Spans()) {
    if (span.name != "row_loop") continue;
    const std::string prefix = "\"table\":";
    EXPECT_EQ(span.args_json.rfind(prefix, 0), 0u) << span.args_json;
    order[span.tid].push_back(static_cast<TableId>(
        std::stoul(span.args_json.substr(prefix.size()))));
  }
  return order;
}

// Runs one traced query at `shards` x `threads` and checks its fetch
// against ReferenceFetch, shard by shard: the summed fetch counters, and
// each shard's evaluation order — the whole candidate list when the table
// filters are off, a prefix of it when rule 1 may cut the shard short.
DiscoveryResult DiscoverAndCheckFetch(const Corpus& corpus,
                                      const InvertedIndex& index,
                                      const Table& query,
                                      const std::vector<ColumnId>& keys,
                                      const DiscoveryOptions& options,
                                      size_t shards, unsigned threads,
                                      const std::string& label) {
  ThreadPool pool(threads);
  QueryTrace trace("executor_test");
  ExecutorOptions exec;
  exec.intra_query_threads = threads;
  exec.num_shards = shards;
  exec.trace = &trace;
  const DiscoveryResult result = QueryExecutor(&corpus, &index)
                                     .Discover(query, keys, options, exec,
                                               &pool);
  const std::vector<ShardRange> ranges =
      shards == 1
          ? std::vector<ShardRange>{{0, static_cast<TableId>(
                                            corpus.NumTables())}}
          : IndexShards::Build(corpus, shards).ranges();
  const std::map<uint64_t, std::vector<TableId>> evaluated =
      EvaluationOrder(trace);
  uint64_t pl_items = 0;
  size_t candidates = 0;
  for (size_t s = 0; s < ranges.size(); ++s) {
    const FetchReference ref =
        ReferenceFetch(index, query, keys, options, ranges[s]);
    pl_items += ref.pl_items;
    candidates += ref.order.size();
    // A single shard runs on the query's main track, shard s on s + 1.
    const auto it = evaluated.find(shards == 1 ? 0 : s + 1);
    const std::vector<TableId> ran =
        it == evaluated.end() ? std::vector<TableId>{} : it->second;
    if (options.use_table_filters) {
      EXPECT_TRUE(ran.size() <= ref.order.size() &&
                  std::equal(ran.begin(), ran.end(), ref.order.begin()))
          << label << " shard " << s;
    } else {
      EXPECT_EQ(ran, ref.order) << label << " shard " << s;
    }
  }
  EXPECT_EQ(result.stats.pl_items_fetched, pl_items) << label;
  EXPECT_EQ(result.stats.candidate_tables, candidates) << label;
  return result;
}

TEST(QueryExecutorTest, BitIdenticalAcrossShardAndThreadCounts) {
  const Corpus corpus = MakeTieCorpus();
  const auto index = Build(corpus);
  const Table query = MakeQuery();
  const std::vector<ColumnId> keys = {0, 1};
  QueryExecutor executor(&corpus, index.get());

  for (int k : {1, 7, 100}) {
    DiscoveryOptions options;
    options.k = k;
    const DiscoveryResult serial =
        MateSearch(&corpus, index.get()).Discover(query, keys, options);
    for (size_t shards : {1, 2, 3, 8}) {
      DiscoveryResult at_one_thread;
      for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        ExecutorOptions exec;
        exec.intra_query_threads = threads;
        exec.num_shards = shards;
        const DiscoveryResult result =
            executor.Discover(query, keys, options, exec, &pool);
        const std::string label = "k=" + std::to_string(k) + " shards=" +
                                  std::to_string(shards) + " threads=" +
                                  std::to_string(threads);
        ExpectSameResult(serial, result, label);
        // The traced run takes the same path and checks the fetch (items,
        // candidates, evaluation order) against the posting lists.
        DiscoveryOptions in_column_order = options;
        in_column_order.init_strategy = InitColumnStrategy::kColumnOrder;
        for (bool filters : {true, false}) {
          in_column_order.use_table_filters = filters;
          DiscoverAndCheckFetch(corpus, *index, query, keys, in_column_order,
                                shards, threads,
                                label + (filters ? "" : " unfiltered"));
        }
        // Fetch-side counters match serial at ANY shard count.
        EXPECT_EQ(result.stats.pl_items_fetched,
                  serial.stats.pl_items_fetched)
            << label;
        EXPECT_EQ(result.stats.candidate_tables,
                  serial.stats.candidate_tables)
            << label;
        EXPECT_EQ(result.stats.shards_used, shards) << label;
        // Full work stats match across thread counts at a FIXED shard
        // count (shard outcomes merge in shard order).
        if (threads == 1u) {
          at_one_thread = result;
        } else {
          ExpectSameWorkStats(at_one_thread.stats, result.stats, label);
        }
      }
    }
  }
}

TEST(QueryExecutorTest, ExcludeAndRestrictSurviveSharding) {
  const Corpus corpus = MakeTieCorpus();
  const auto index = Build(corpus);
  const Table query = MakeQuery();
  const std::vector<ColumnId> keys = {0, 1};
  QueryExecutor executor(&corpus, index.get());

  DiscoveryOptions options;
  options.k = 5;
  options.init_strategy = InitColumnStrategy::kColumnOrder;
  options.exclude_tables = {4, 9, 14};
  options.restrict_tables = {2, 4, 9, 14, 19, 24, 29, 34, 39};
  for (const bool restrict : {true, false}) {
    DiscoveryOptions run = options;
    if (!restrict) run.restrict_tables.clear();  // exclusion alone
    const DiscoveryResult serial =
        MateSearch(&corpus, index.get()).Discover(query, keys, run);
    for (size_t shards : {1, 2, 3, 8}) {
      DiscoveryResult at_one_thread;
      for (unsigned threads : {1u, 4u}) {
        const std::string label =
            std::string(restrict ? "exclude+restrict" : "exclude") +
            " shards=" + std::to_string(shards) +
            " threads=" + std::to_string(threads);
        ThreadPool pool(threads);
        ExecutorOptions exec;
        exec.intra_query_threads = threads;
        exec.num_shards = shards;
        const DiscoveryResult result =
            executor.Discover(query, keys, run, exec, &pool);
        ExpectSameResult(serial, result, label);
        for (const TableResult& t : result.top_k) {
          EXPECT_FALSE(t.table_id == 4 || t.table_id == 9 ||
                       t.table_id == 14)
              << label << " returned excluded table " << t.table_id;
        }
        EXPECT_EQ(result.stats.pl_items_fetched,
                  serial.stats.pl_items_fetched)
            << label;
        EXPECT_EQ(result.stats.candidate_tables,
                  serial.stats.candidate_tables)
            << label;
        if (threads == 1u) {
          at_one_thread = result;
        } else {
          ExpectSameWorkStats(at_one_thread.stats, result.stats, label);
        }
        for (bool filters : {true, false}) {
          DiscoveryOptions traced = run;
          traced.use_table_filters = filters;
          DiscoverAndCheckFetch(corpus, *index, query, keys, traced, shards,
                                threads,
                                label + (filters ? "" : " unfiltered"));
        }
      }
    }
  }
}

TEST(QueryExecutorTest, EmptyCandidateSet) {
  const Corpus corpus = MakeTieCorpus();
  const auto index = Build(corpus);
  Table query("q");
  query.AddColumn("a");
  query.AddColumn("b");
  (void)query.AppendRow({"absent1", "absent2"});
  const std::vector<ColumnId> keys = {0, 1};
  QueryExecutor executor(&corpus, index.get());

  DiscoveryOptions options;
  options.k = 3;
  for (size_t shards : {1, 2, 3, 8}) {
    ThreadPool pool(4);
    ExecutorOptions exec;
    exec.intra_query_threads = 4;
    exec.num_shards = shards;
    const DiscoveryResult result =
        executor.Discover(query, keys, options, exec, &pool);
    EXPECT_TRUE(result.top_k.empty()) << "shards=" << shards;
    EXPECT_EQ(result.stats.candidate_tables, 0u) << "shards=" << shards;
    EXPECT_EQ(result.stats.shards_used, shards) << "shards=" << shards;
  }
}

TEST(QueryExecutorTest, SingletonCandidateSet) {
  const Corpus corpus = MakeTieCorpus();
  const auto index = Build(corpus);
  Table query("q");
  query.AddColumn("a");
  query.AddColumn("b");
  // "own7" exists only in table 7 (paired with "z").
  (void)query.AppendRow({"own7", "z"});
  const std::vector<ColumnId> keys = {0, 1};
  QueryExecutor executor(&corpus, index.get());

  DiscoveryOptions options;
  options.k = 3;
  const DiscoveryResult serial =
      MateSearch(&corpus, index.get()).Discover(query, keys, options);
  ASSERT_EQ(serial.top_k.size(), 1u);
  EXPECT_EQ(serial.top_k[0].table_id, 7u);
  for (size_t shards : {1, 2, 3, 8}) {
    ThreadPool pool(4);
    ExecutorOptions exec;
    exec.intra_query_threads = 4;
    exec.num_shards = shards;
    ExpectSameResult(serial,
                     executor.Discover(query, keys, options, exec, &pool),
                     "shards=" + std::to_string(shards));
  }
}

TEST(QueryExecutorTest, ShardCountCappedByCorpusTables) {
  Corpus corpus;
  for (int t = 0; t < 2; ++t) {
    Table table("t" + std::to_string(t));
    table.AddColumn("a");
    table.AddColumn("b");
    (void)table.AppendRow({"k1", "v1"});
    corpus.AddTable(std::move(table));
  }
  const auto index = Build(corpus);
  Table query("q");
  query.AddColumn("a");
  query.AddColumn("b");
  (void)query.AppendRow({"k1", "v1"});
  QueryExecutor executor(&corpus, index.get());

  ThreadPool pool(4);
  ExecutorOptions exec;
  exec.intra_query_threads = 4;
  exec.num_shards = 8;
  DiscoveryOptions options;
  const DiscoveryResult result =
      executor.Discover(query, {0, 1}, options, exec, &pool);
  EXPECT_EQ(result.stats.shards_used, 2u);
  EXPECT_EQ(result.top_k.size(), 2u);
}

TEST(QueryExecutorTest, AutoModeKeepsSmallQueriesSerial) {
  const Corpus corpus = MakeTieCorpus();
  const auto index = Build(corpus);
  const Table query = MakeQuery();
  QueryExecutor executor(&corpus, index.get());

  ThreadPool pool(4);
  ExecutorOptions exec;  // intra_query_threads = 0: auto
  DiscoveryOptions options;
  const DiscoveryResult result =
      executor.Discover(query, {0, 1}, options, exec, &pool);
  // The tie corpus yields a few hundred PL items — far under the gate.
  EXPECT_EQ(result.stats.shards_used, 1u);
  EXPECT_EQ(result.stats.fanout_threads, 1u);
}

TEST(QueryExecutorTest, AutoModeFansOutLargeQueries) {
  // One hot value whose posting list alone clears the auto gate. The query
  // holds every value of both columns, so either column it fetches clears
  // the gate.
  Corpus corpus;
  {
    Table big("big");
    big.AddColumn("a");
    big.AddColumn("b");
    for (uint64_t r = 0;
         r < QueryExecutor::kAutoParallelMinItems + 100; ++r) {
      (void)big.AppendRow({"dup", "v" + std::to_string(r % 7)});
    }
    corpus.AddTable(std::move(big));
  }
  for (int t = 0; t < 7; ++t) {
    Table table("small" + std::to_string(t));
    table.AddColumn("a");
    table.AddColumn("b");
    (void)table.AppendRow({"dup", "v" + std::to_string(t)});
    corpus.AddTable(std::move(table));
  }
  const auto index = Build(corpus);
  Table query("q");
  query.AddColumn("a");
  query.AddColumn("b");
  for (int i = 0; i < 7; ++i) {
    (void)query.AppendRow({"dup", "v" + std::to_string(i)});
  }
  QueryExecutor executor(&corpus, index.get());

  DiscoveryOptions options;
  const DiscoveryResult serial =
      MateSearch(&corpus, index.get()).Discover(query, {0, 1}, options);

  ThreadPool pool(4);
  ExecutorOptions exec;  // auto
  const DiscoveryResult result =
      executor.Discover(query, {0, 1}, options, exec, &pool);
  EXPECT_GT(result.stats.shards_used, 1u);
  EXPECT_EQ(result.stats.fanout_threads, 4u);
  ExpectSameResult(serial, result, "auto large");
}

TEST(QueryExecutorTest, EstimatePlItemsMatchesFetchTraffic) {
  const Corpus corpus = MakeTieCorpus();
  const auto index = Build(corpus);
  const Table query = MakeQuery();
  const std::vector<ColumnId> keys = {0, 1};
  QueryExecutor executor(&corpus, index.get());

  DiscoveryOptions options;
  options.k = 7;
  ExecutorOptions exec;
  exec.intra_query_threads = 1;
  exec.num_shards = 1;
  const DiscoveryResult serial =
      executor.Discover(query, keys, options, exec, nullptr);
  const uint64_t estimate = executor.EstimatePlItems(query, keys, options);
  EXPECT_GT(estimate, 0u);
  // The estimate is exactly the PL traffic the row loop fetches: shard
  // slices partition every probed posting list, and fetch counters tally
  // whole slices before any exclude/restrict filtering.
  EXPECT_EQ(estimate, serial.stats.pl_items_fetched);

  // Duplicate rows add no new init values, so the estimate is unchanged —
  // it is a pass over *distinct* init-column values, matching how
  // PrepareQuery derives its probe set from distinct key combos.
  Table doubled = MakeQuery();
  for (int i = 0; i < 10; ++i) {
    (void)doubled.AppendRow(
        {"k" + std::to_string(i), "v" + std::to_string(i)});
  }
  EXPECT_EQ(executor.EstimatePlItems(doubled, keys, options), estimate);

  // Raw init cells probe the index normalized, and a row with an empty key
  // value probes nothing — PrepareQuery never sees its combo. Under the
  // cardinality rule the city column is the init column; the default
  // fetches the two codes' lists instead.
  Corpus cities;
  Table lake("lake");
  lake.AddColumn("city");
  lake.AddColumn("code");
  for (int r = 0; r < 50; ++r) {
    (void)lake.AppendRow({"berlin", "de" + std::to_string(r)});
  }
  for (int r = 0; r < 30; ++r) {
    (void)lake.AppendRow({"paris", "fr" + std::to_string(r)});
  }
  cities.AddTable(std::move(lake));
  const auto city_index = Build(cities);
  QueryExecutor city_executor(&cities, city_index.get());
  Table mixed("mixed");
  mixed.AddColumn("city");
  mixed.AddColumn("code");
  (void)mixed.AppendRow({"Berlin", "DE0"});
  (void)mixed.AppendRow({" berlin", "de1"});
  (void)mixed.AppendRow({"paris", ""});
  DiscoveryOptions by_cardinality = options;
  by_cardinality.init_strategy = InitColumnStrategy::kMinCardinality;
  const DiscoveryResult mixed_run =
      city_executor.Discover(mixed, keys, by_cardinality, exec, nullptr);
  EXPECT_EQ(mixed_run.stats.pl_items_fetched, 50u);
  EXPECT_EQ(city_executor.EstimatePlItems(mixed, keys, by_cardinality),
            mixed_run.stats.pl_items_fetched);
  EXPECT_EQ(city_executor.Discover(mixed, keys, options, exec, nullptr)
                .stats.pl_items_fetched,
            2u);
  EXPECT_EQ(city_executor.EstimatePlItems(mixed, keys, options), 2u);

  // Degenerate shapes estimate zero, mirroring Discover's early return.
  DiscoveryOptions zero_k = options;
  zero_k.k = 0;
  EXPECT_EQ(executor.EstimatePlItems(query, keys, zero_k), 0u);
  EXPECT_EQ(executor.EstimatePlItems(query, {}, options), 0u);
}

TEST(QueryExecutorTest, EstimateAgreesWithAutoParallelGate) {
  // The public estimate is the same figure the auto-parallel gate consults:
  // the tie corpus sits under the threshold (auto mode stays serial), while
  // a corpus with one hot posting list clears it (auto mode fans out), for
  // a query holding every value of both columns.
  {
    const Corpus corpus = MakeTieCorpus();
    const auto index = Build(corpus);
    QueryExecutor executor(&corpus, index.get());
    EXPECT_LT(executor.EstimatePlItems(MakeQuery(), {0, 1},
                                       DiscoveryOptions{}),
              QueryExecutor::kAutoParallelMinItems);
  }
  {
    Corpus corpus;
    Table big("big");
    big.AddColumn("a");
    big.AddColumn("b");
    for (uint64_t r = 0; r < QueryExecutor::kAutoParallelMinItems + 100;
         ++r) {
      (void)big.AppendRow({"dup", "v" + std::to_string(r % 7)});
    }
    corpus.AddTable(std::move(big));
    const auto index = Build(corpus);
    Table query("q");
    query.AddColumn("a");
    query.AddColumn("b");
    for (int i = 0; i < 7; ++i) {
      (void)query.AppendRow({"dup", "v" + std::to_string(i)});
    }
    QueryExecutor executor(&corpus, index.get());
    EXPECT_GE(executor.EstimatePlItems(query, {0, 1}, DiscoveryOptions{}),
              QueryExecutor::kAutoParallelMinItems);
  }
}

TEST(QueryExecutorTest, SessionEstimateMatchesExecutorAndValidates) {
  SessionOptions session_options;
  session_options.corpus = MakeTieCorpus();
  session_options.build_index = true;
  session_options.num_threads = 1;
  session_options.cache_bytes = 0;
  auto session = Session::Open(std::move(session_options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  const Table query = MakeQuery();
  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = {0, 1};
  spec.options.k = 7;

  auto estimate = session->EstimatePlItems(spec);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_GT(*estimate, 0u);
  {
    // Same figure as an executor over an independent build of the lake.
    const Corpus corpus = MakeTieCorpus();
    const auto index = Build(corpus);
    QueryExecutor executor(&corpus, index.get());
    EXPECT_EQ(*estimate,
              executor.EstimatePlItems(query, {0, 1}, spec.options));
  }

  // Estimating never perturbs discovery: the subsequent Discover matches a
  // never-estimated session bit for bit.
  auto discovered = session->Discover(spec);
  ASSERT_TRUE(discovered.ok());
  {
    const Corpus corpus = MakeTieCorpus();
    const auto index = Build(corpus);
    QueryExecutor executor(&corpus, index.get());
    ExecutorOptions exec;
    exec.intra_query_threads = 1;
    exec.num_shards = 1;
    ExpectSameResult(
        executor.Discover(query, {0, 1}, spec.options, exec, nullptr),
        *discovered, "estimate-then-discover");
  }

  // Validation mirrors Discover: a bad spec gets the same typed error.
  QuerySpec bad = spec;
  bad.key_columns = {0, 99};
  EXPECT_FALSE(session->EstimatePlItems(bad).ok());
}

TEST(QueryExecutorTest, SessionRoutesKnobsAndReportsShape) {
  SessionOptions session_options;
  session_options.corpus = MakeTieCorpus();
  session_options.build_index = true;
  session_options.num_threads = 4;
  session_options.cache_bytes = 0;
  auto session = Session::Open(std::move(session_options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  const Table query = MakeQuery();
  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = {0, 1};
  spec.options.k = 7;
  spec.intra_query_threads = 8;  // capped by the 4-wide pool
  spec.intra_query_shards = 3;

  QuerySpec serial_spec = spec;
  serial_spec.intra_query_threads = 1;
  serial_spec.intra_query_shards = 1;
  auto serial = session->Discover(serial_spec);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->stats.shards_used, 1u);

  auto sharded = session->Discover(spec);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->stats.shards_used, 3u);
  EXPECT_EQ(sharded->stats.fanout_threads, 3u);  // min(width 4, shards 3)
  ExpectSameResult(*serial, *sharded, "session discover");

  // A single-spec batch routes through the intra-query executor and the
  // batch stats surface the fan-out.
  auto batch = session->DiscoverBatch({spec});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->results.size(), 1u);
  ExpectSameResult(*serial, batch->results[0], "single-spec batch");
  EXPECT_EQ(batch->stats.intra_parallel_queries, 1u);
  EXPECT_EQ(batch->stats.intra_shards_total, 3u);
  EXPECT_EQ(batch->stats.max_fanout_threads, 3u);

  // A batch with several distinct queries runs each as Discover would:
  // every query fans out over its own shards, nested inside the batch's
  // fan-out on the same pool.
  QuerySpec spec2 = spec;
  spec2.options.k = 3;
  auto sharded2 = session->Discover(spec2);
  ASSERT_TRUE(sharded2.ok());
  auto multi = session->DiscoverBatch({spec, spec2});
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi->results.size(), 2u);
  const DiscoveryResult* alone[] = {&*sharded, &*sharded2};
  for (size_t q = 0; q < 2; ++q) {
    const DiscoveryResult& r = multi->results[q];
    const std::string label = "multi-spec batch " + std::to_string(q);
    EXPECT_EQ(r.stats.shards_used, 3u) << label;
    EXPECT_EQ(r.stats.fanout_threads, 3u) << label;
    ExpectSameResult(*alone[q], r, label);
    ExpectSameWorkStats(alone[q]->stats, r.stats, label);
  }
  EXPECT_EQ(multi->stats.intra_parallel_queries, 2u);
}

// ---- the row filter against an independent count -------------------

// A lake whose init values repeat across rows. Table t posts "init<t % 3>"
// in column 0 of each of its rows, so a table's run of that value has
// kRunRows[t] entries (runs of 1, 16, 17 and 120; single-row tables
// included); every third table posts it in column 2 as well, so its rows
// each hold the value twice. The other columns come from a vocabulary of
// eight words, so some rows hold a combo, some only pass the filter and
// the rest fail it.
constexpr size_t kRunRows[] = {1, 16, 17, 120, 1, 3, 1, 17, 16, 120, 2};

Corpus MakeRunLake() {
  Rng rng(4242);
  Corpus corpus;
  for (size_t t = 0; t < std::size(kRunRows); ++t) {
    Table table("runs_" + std::to_string(t));
    for (int c = 0; c < 5; ++c) table.AddColumn("c" + std::to_string(c));
    const std::string init = "init" + std::to_string(t % 3);
    for (size_t r = 0; r < kRunRows[t]; ++r) {
      std::vector<std::string> cells = {init};
      for (int c = 1; c < 5; ++c) {
        cells.push_back("w" + std::to_string(rng.Uniform(8)));
      }
      if (t % 3 == 0) cells[2] = init;
      (void)table.AppendRow(std::move(cells));
    }
    corpus.AddTable(std::move(table));
  }
  return corpus;
}

// |Q| key columns over 24 rows: column 0 cycles through the three init
// values (the fewest distinct values, so it is the init column), the
// others draw from the lake's vocabulary, so each init value carries
// several combos.
Table MakeRunQuery(size_t width, uint64_t seed) {
  Rng rng(seed);
  Table query("runs_q" + std::to_string(width));
  for (size_t c = 0; c < width; ++c) query.AddColumn("k" + std::to_string(c));
  for (int r = 0; r < 24; ++r) {
    std::vector<std::string> cells = {"INIT" + std::to_string(r % 3)};
    for (size_t c = 1; c < width; ++c) {
      cells.push_back(" w" + std::to_string(rng.Uniform(8)));
    }
    (void)query.AppendRow(std::move(cells));
  }
  return query;
}

// Rows Algorithm 1 sends to verification with both table filters off,
// counted from the definition: every posting entry of each distinct init
// value is one row visit, and it is sent on iff the row's super key
// covers MakeSuperKey of some query combo holding that init value. With
// `semi_join`, a combo only counts in a table that posts its rarest
// non-init value: the one with the shortest posting list, the first such
// position on a tie. The executor's semi-join sends at least that many:
// it may take a value with a long list as posted everywhere.
uint64_t CountFilterSurvivors(const InvertedIndex& index, const Table& query,
                              const std::vector<ColumnId>& keys,
                              size_t init_pos, bool semi_join) {
  std::map<std::string, std::set<std::vector<std::string>>> by_init;
  for (RowId r = 0; r < query.NumRows(); ++r) {
    std::vector<std::string> combo;
    for (ColumnId c : keys) combo.push_back(NormalizeValue(query.cell(r, c)));
    if (std::none_of(combo.begin(), combo.end(),
                     [](const std::string& v) { return v.empty(); })) {
      by_init[combo[init_pos]].insert(combo);
    }
  }
  uint64_t survivors = 0;
  for (const auto& [init, combos] : by_init) {
    std::vector<BitVector> combo_keys;
    std::vector<std::set<TableId>> rarest_in;  // tables posting it
    for (const auto& combo : combos) {
      combo_keys.push_back(index.hash().MakeSuperKey(combo));
      size_t rarest = init_pos == 0 ? 1 : 0;
      for (size_t i = 0; i < combo.size(); ++i) {
        if (i != init_pos && index.Lookup(combo[i]).size() <
                                 index.Lookup(combo[rarest]).size()) {
          rarest = i;
        }
      }
      rarest_in.emplace_back();
      for (const PostingEntry& e : index.Lookup(combo[rarest])) {
        rarest_in.back().insert(e.table_id);
      }
    }
    for (const PostingEntry& e : index.Lookup(init)) {
      bool sent = false;
      for (size_t c = 0; c < combo_keys.size(); ++c) {
        sent = sent ||
               ((!semi_join || rarest_in[c].count(e.table_id) > 0) &&
                index.superkeys().Covers(e.table_id, e.row_id, combo_keys[c]));
      }
      survivors += sent;
    }
  }
  return survivors;
}

TEST(RowFilterTest, SentToVerificationMatchesAnIndependentCount) {
  const Corpus oracle = MakeRunLake();
  SessionOptions options;
  options.corpus = MakeRunLake();
  options.build_index = true;
  options.num_threads = 2;
  options.cache_bytes = 0;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  std::vector<Table> queries;
  for (size_t width = 2; width <= 4; ++width) {
    queries.push_back(MakeRunQuery(width, 90 + width));
  }
  // The oracle's top-k per query (k covers every table).
  std::vector<std::vector<std::pair<TableId, int64_t>>> expected;
  for (const Table& query : queries) {
    std::vector<ColumnId> keys(query.NumColumns());
    for (ColumnId c = 0; c < keys.size(); ++c) keys[c] = c;
    std::vector<std::pair<TableId, int64_t>> ranked;
    for (TableId t = 0; t < oracle.NumTables(); ++t) {
      const int64_t j =
          BruteForceJoinability(query, keys, oracle.table(t)).joinability;
      if (j > 0) ranked.push_back({t, j});
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    ASSERT_FALSE(ranked.empty());
    expected.push_back(std::move(ranked));
  }

  // Some family must let a row through for one combo and stop another,
  // or the count proves nothing.
  bool filter_pruned = false;
  for (const HashFamily family : AllHashFamilies()) {
    for (const size_t bits : {size_t{128}, size_t{512}}) {
      SCOPED_TRACE(std::string(HashFamilyName(family)) + "/" +
                   std::to_string(bits));
      ASSERT_TRUE(session->ResetHash(family, bits).ok());
      for (size_t q = 0; q < queries.size(); ++q) {
        const Table& query = queries[q];
        QuerySpec spec;
        spec.table = &query;
        for (ColumnId c = 0; c < query.NumColumns(); ++c) {
          spec.key_columns.push_back(c);
        }
        spec.options.k = static_cast<int>(std::size(kRunRows));
        spec.options.use_table_filters = false;
        const KeyCombos combos = InternKeyCombos(query, spec.key_columns);
        const std::vector<uint64_t> pl_items = PlItemsPerPosition(
            combos, ProbeKeyValues(combos, session->index()));
        const size_t init_pos =
            SelectInitColumn(query, spec.key_columns, combos,
                             spec.options.init_strategy, &pl_items);
        ASSERT_EQ(init_pos, 0u);
        const uint64_t survivors = CountFilterSurvivors(
            session->index(), query, spec.key_columns, init_pos, false);
        const uint64_t complete_survivors = CountFilterSurvivors(
            session->index(), query, spec.key_columns, init_pos, true);
        for (const bool semi_join : {true, false}) {
          spec.options.use_semi_join = semi_join;
          for (const size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
            SCOPED_TRACE("|Q|=" + std::to_string(query.NumColumns()) +
                         " shards=" + std::to_string(shards) +
                         (semi_join ? "" : " no semi-join"));
            spec.intra_query_shards = shards;
            auto result = session->Discover(spec);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            const uint64_t sent = result->stats.rows_sent_to_verification;
            if (semi_join) {
              EXPECT_LE(complete_survivors, sent);
              EXPECT_LE(sent, survivors);
            } else {
              EXPECT_EQ(sent, survivors);
            }
            EXPECT_GT(survivors, 0u);
            filter_pruned = filter_pruned ||
                            survivors < result->stats.pl_items_fetched;
            ASSERT_EQ(result->top_k.size(), expected[q].size());
            for (size_t i = 0; i < expected[q].size(); ++i) {
              EXPECT_EQ(result->top_k[i].table_id, expected[q][i].first);
              EXPECT_EQ(result->top_k[i].joinability,
                        expected[q][i].second);
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(filter_pruned);
}

// ---- the semi-join against the oracle --------------------------------

// A hand-built lake for the semi-join. The query's key columns hold the
// combos
//   c0 (a x1 y1 z1)   c1 (a x2 y2 z2)   c2 (a x3 y3 z3)
//   c3 (b x1 y2 z3)   c4 (b x4 y4 nowhere)
// with "a" and "b" the init values; no table posts "nowhere". Table 0
// posts every x and y value 20 times, so at |Q| = 4 each combo's rarest
// value is its last one. A |Q| < 4 key takes the first |Q| columns.
//   0 filler     20 x (x1 x2 x3 x4), 20 x (y1 y2 y3 y4): no init value
//   1 full       c0, c1, c3
//   2 no_z1      (a x1 y1 z9): c0 without its rarest value
//   3 split      (a x2 y0 w0), (w1 w1 y2 z2): c1's values, never in one row
//   4 long       12 x (a f g z3), then c2: a and z3 repeat in 13 rows
//   5 after      c2: right after table 4 in z3's list, and after tables 0
//                and 4 in x3's
//   6 partial    c0, (a x5 y5 z5), (a x6 y6 z6): of a's combos only c0
//                has its rarest value here
//   7 b_only     (b x4 y4 z4), c3
//   8 triple     c0, c1, c2
//   9 init_only  5 x (a x1 y1 q): no combo of a completes
//  10 b_skip     2 x (b x4 y4 q): no combo of b completes
using Rows = std::vector<std::vector<std::string>>;

Corpus MakeSemiJoinLake() {
  const std::vector<std::string> c0 = {"a", "x1", "y1", "z1"};
  const std::vector<std::string> c1 = {"a", "x2", "y2", "z2"};
  const std::vector<std::string> c2 = {"a", "x3", "y3", "z3"};
  const std::vector<std::string> c3 = {"b", "x1", "y2", "z3"};
  const auto repeat = [](size_t n, const std::vector<std::string>& row) {
    return Rows(n, row);
  };
  Rows filler = repeat(20, {"x1", "x2", "x3", "x4"});
  for (const auto& row : repeat(20, {"y1", "y2", "y3", "y4"})) {
    filler.push_back(row);
  }
  Rows long_rows = repeat(12, {"a", "f", "g", "z3"});
  long_rows.push_back(c2);
  const std::vector<std::pair<std::string, Rows>> tables = {
      {"filler", filler},
      {"full", {c0, c1, c3}},
      {"no_z1", {{"a", "x1", "y1", "z9"}}},
      {"split", {{"a", "x2", "y0", "w0"}, {"w1", "w1", "y2", "z2"}}},
      {"long", long_rows},
      {"after", {c2}},
      {"partial", {c0, {"a", "x5", "y5", "z5"}, {"a", "x6", "y6", "z6"}}},
      {"b_only", {{"b", "x4", "y4", "z4"}, c3}},
      {"triple", {c0, c1, c2}},
      {"init_only", repeat(5, {"a", "x1", "y1", "q"})},
      {"b_skip", repeat(2, {"b", "x4", "y4", "q"})},
  };
  Corpus corpus;
  for (const auto& [name, rows] : tables) {
    Table table(name);
    for (int c = 0; c < 4; ++c) table.AddColumn("c" + std::to_string(c));
    for (const auto& row : rows) (void)table.AppendRow(row);
    corpus.AddTable(std::move(table));
  }
  return corpus;
}

// The five combos, plus c0 again (a duplicate row adds no combo), in
// spellings that normalize to the lake's.
Table MakeSemiJoinQuery() {
  Table query("semi_q");
  for (int c = 0; c < 4; ++c) query.AddColumn("k" + std::to_string(c));
  (void)query.AppendRow({"a", "x1", "y1", "z1"});
  (void)query.AppendRow({"A", "x2", "y2", "z2"});
  (void)query.AppendRow({"a", " x3", "y3", "Z3"});
  (void)query.AppendRow({"b", "x1", "y2", "z3"});
  (void)query.AppendRow({"b", "x4", "y4", "nowhere"});
  (void)query.AppendRow({"a ", "x1", "y1", "z1"});
  return query;
}

// §2's top-k over the tables `options` admits: BruteForceJoinability per
// table, joinability desc, table id asc.
std::vector<TableResult> OracleTopK(const Corpus& corpus, const Table& query,
                                    const std::vector<ColumnId>& keys,
                                    const DiscoveryOptions& options) {
  const std::set<TableId> excluded(options.exclude_tables.begin(),
                                   options.exclude_tables.end());
  const std::set<TableId> restricted(options.restrict_tables.begin(),
                                     options.restrict_tables.end());
  std::vector<TableResult> ranked;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    if (excluded.count(t) || (!restricted.empty() && !restricted.count(t))) {
      continue;
    }
    const BruteForceResult best =
        BruteForceJoinability(query, keys, corpus.table(t));
    if (best.joinability > 0) {
      ranked.push_back({t, best.joinability, best.best_mapping});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const TableResult& a, const TableResult& b) {
              return a.joinability != b.joinability
                         ? a.joinability > b.joinability
                         : a.table_id < b.table_id;
            });
  if (ranked.size() > static_cast<size_t>(options.k)) ranked.resize(options.k);
  return ranked;
}

TEST(SemiJoinTest, MatchesTheOracleAndTheAlgorithmWithoutIt) {
  const Corpus corpus = MakeSemiJoinLake();
  const auto index = Build(corpus);
  const Table query = MakeSemiJoinQuery();
  QueryExecutor executor(&corpus, index.get());
  ThreadPool pool(2);

  struct Filter {
    std::string name;
    std::vector<TableId> exclude;
    std::vector<TableId> restrict_to;
  };
  const std::vector<Filter> filters = {
      {"all", {}, {}},
      {"exclude", {1, 8}, {}},
      {"restrict", {}, {2, 3, 4, 5, 7, 9}},
      {"both", {4}, {1, 4, 5, 6, 10}},
  };
  // The lake is laid out for the cardinality rule, whose init values are
  // a and b; the default init column must agree with the oracle too.
  bool skipped_some = false;
  for (const InitColumnStrategy strategy :
       {InitColumnStrategy::kMinCardinality, InitColumnStrategy::kBestCase}) {
    for (size_t width = 1; width <= 4; ++width) {
      std::vector<ColumnId> keys(width);
      for (ColumnId c = 0; c < width; ++c) keys[c] = c;
      for (const int k : {1, 3, 20}) {
        for (const bool table_filters : {true, false}) {
          for (const Filter& filter : filters) {
            DiscoveryOptions on;
            on.k = k;
            on.init_strategy = strategy;
            on.use_table_filters = table_filters;
            on.exclude_tables = filter.exclude;
            on.restrict_tables = filter.restrict_to;
            DiscoveryOptions off = on;
            off.use_semi_join = false;
            const std::vector<TableResult> oracle =
                OracleTopK(corpus, query, keys, on);
            ASSERT_FALSE(oracle.empty());
            for (const size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
              const std::string label =
                  "|Q|=" + std::to_string(width) + " k=" + std::to_string(k) +
                  (table_filters ? "" : " unfiltered") + " " + filter.name +
                  " shards=" + std::to_string(shards) + " " +
                  std::string(InitColumnStrategyName(strategy));
              ExecutorOptions exec;
              exec.num_shards = shards;
              const DiscoveryResult with =
                  executor.Discover(query, keys, on, exec, &pool);
              const DiscoveryResult without =
                  executor.Discover(query, keys, off, exec, &pool);
              ExpectSameResult(without, with, label);
              ASSERT_EQ(with.top_k.size(), oracle.size()) << label;
              for (size_t i = 0; i < oracle.size(); ++i) {
                EXPECT_EQ(with.top_k[i].table_id, oracle[i].table_id) << label;
                EXPECT_EQ(with.top_k[i].joinability, oracle[i].joinability)
                    << label;
                EXPECT_EQ(with.top_k[i].best_mapping, oracle[i].best_mapping)
                    << label;
              }
              EXPECT_EQ(without.stats.rows_skipped, 0u) << label;
              EXPECT_EQ(with.stats.pl_items_fetched,
                        without.stats.pl_items_fetched)
                  << label;
              EXPECT_EQ(with.stats.candidate_tables,
                        without.stats.candidate_tables)
                  << label;
              // Without the table filters both walk every entry of every
              // candidate, so the semi-join only moves entries from walked
              // to skipped.
              if (!table_filters) {
                EXPECT_EQ(with.stats.rows_checked + with.stats.rows_skipped,
                          without.stats.rows_checked)
                    << label;
              }
              // A |Q| = 1 combo has no value beyond its init value.
              if (width == 1) {
                EXPECT_EQ(with.stats.rows_skipped, 0u) << label;
              }
              skipped_some = skipped_some || with.stats.rows_skipped > 0;
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(skipped_some);
}

TEST(SemiJoinTest, CountsSkippedAndWalkedRows) {
  const Corpus corpus = MakeSemiJoinLake();
  const auto index = Build(corpus);
  const Table query = MakeSemiJoinQuery();
  const std::vector<ColumnId> keys = {0, 1, 2, 3};
  QueryExecutor executor(&corpus, index.get());

  // The counts below are those of the cardinality rule's init column.
  // a posts 2 + 1 + 1 + 13 + 1 + 3 + 3 + 5 entries in tables 1-6, 8 and
  // 9, b posts 1 + 2 + 2 in tables 1, 7 and 10: 34 entries in 10
  // candidates. With the table filters off every candidate is evaluated,
  // and the semi-join skips a's runs in tables 2 (1 entry) and 9 (5) and
  // b's in table 10 (2).
  DiscoveryOptions unfiltered;
  unfiltered.k = 20;
  unfiltered.init_strategy = InitColumnStrategy::kMinCardinality;
  unfiltered.use_table_filters = false;
  DiscoveryResult with =
      executor.Discover(query, keys, unfiltered, ExecutorOptions{}, nullptr);
  EXPECT_EQ(with.stats.pl_items_fetched, 34u);
  EXPECT_EQ(with.stats.candidate_tables, 10u);
  EXPECT_EQ(with.stats.tables_evaluated, 10u);
  EXPECT_EQ(with.stats.rows_skipped, 8u);
  EXPECT_EQ(with.stats.rows_checked, 26u);
  unfiltered.use_semi_join = false;
  DiscoveryResult without =
      executor.Discover(query, keys, unfiltered, ExecutorOptions{}, nullptr);
  EXPECT_EQ(without.stats.tables_evaluated, 10u);
  EXPECT_EQ(without.stats.rows_skipped, 0u);
  EXPECT_EQ(without.stats.rows_checked, 34u);

  // k = 1 with the table filters on. Candidates in PL-item order, with
  // the combos whose rarest value each posts: 4 (13 items; c2), 9 (5;
  // none), 1 (3; c0 c1 c2 c3), 6 (3; c0), 8 (3; c0 c1 c2), then 7, 10,
  // 2, 3 and 5 with fewer than 3 items. Table 4 scores 1, so table 9
  // (no combo left) is pruned; table 1 scores 3, so table 6 (one combo)
  // is pruned while table 8 (three) is walked and ties; rule 1 then
  // breaks at table 7 and prunes the last five.
  DiscoveryOptions top1;
  top1.k = 1;
  top1.init_strategy = InitColumnStrategy::kMinCardinality;
  with = executor.Discover(query, keys, top1, ExecutorOptions{}, nullptr);
  ASSERT_EQ(with.top_k.size(), 1u);
  EXPECT_EQ(with.top_k[0].table_id, 1u);
  EXPECT_EQ(with.top_k[0].joinability, 3);
  EXPECT_EQ(with.stats.tables_evaluated, 3u);
  EXPECT_EQ(with.stats.tables_pruned_rule1, 7u);
  EXPECT_EQ(with.stats.tables_pruned_rule2, 0u);
  EXPECT_EQ(with.stats.rows_skipped, 0u);
  EXPECT_EQ(with.stats.rows_checked, 13u + 3u + 3u);
}

}  // namespace
}  // namespace mate
