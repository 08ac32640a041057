// Session's concurrency contract: Discover, DiscoverBatch and
// EstimatePlItems may run on many threads at once over one session. Every
// concurrent result must equal the result of the same spec run alone — top
// k, scores, mappings and work counters — at every pool width,
// intra-query fan-out and cache setting. The mutators that need an idle
// session assert it in Debug builds.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/query_executor.h"
#include "core/session.h"
#include "util/rng.h"
#include "workload/query_gen.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

// A lake with planted joins for 2- and 3-column keys, plus one table whose
// hot value alone clears the executor's auto fan-out gate.
struct Lake {
  Corpus corpus;
  std::vector<QueryCase> queries;
  Table hot_query{"hot"};
};

Lake MakeLake() {
  Lake lake;
  Rng rng(17);
  Vocabulary vocab = Vocabulary::Generate(150, Vocabulary::Style::kWords, 5);
  for (size_t t = 0; t < 30; ++t) {
    Table table("t" + std::to_string(t));
    const size_t cols = 3 + rng.Uniform(3);
    for (size_t c = 0; c < cols; ++c) table.AddColumn("c" + std::to_string(c));
    const size_t rows = 4 + rng.Uniform(20);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> cells;
      for (size_t c = 0; c < cols; ++c) {
        cells.push_back(vocab.word(rng.Uniform(vocab.size())));
      }
      (void)table.AppendRow(std::move(cells));
    }
    lake.corpus.AddTable(std::move(table));
  }
  for (size_t key_size : {2, 3}) {
    QuerySetSpec spec;
    spec.num_queries = 3;
    spec.query_rows = 16;
    spec.query_columns = 4;
    spec.key_size = key_size;
    spec.planted_tables = 5;
    spec.seed = 40 + key_size;
    for (QueryCase& q : GenerateQueries(&lake.corpus, vocab, spec)) {
      lake.queries.push_back(std::move(q));
    }
  }
  Table big("big");
  big.AddColumn("a");
  big.AddColumn("b");
  for (uint64_t r = 0; r < QueryExecutor::kAutoParallelMinItems + 64; ++r) {
    (void)big.AppendRow({"hot", "v" + std::to_string(r % 9)});
  }
  lake.corpus.AddTable(std::move(big));
  // The hot query holds every value of both columns, so either column it
  // fetches clears the gate.
  lake.hot_query.AddColumn("a");
  lake.hot_query.AddColumn("b");
  for (int i = 0; i < 9; ++i) {
    (void)lake.hot_query.AppendRow({"hot", "v" + std::to_string(i)});
  }
  return lake;
}

// A session over a fresh copy of the (deterministic) lake.
Session OpenSession(unsigned pool_width, size_t cache_bytes) {
  SessionOptions options;
  options.corpus = MakeLake().corpus;
  options.build_index = true;
  options.num_threads = pool_width;
  options.cache_bytes = cache_bytes;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

// The query mix: every planted query at two k values, one with an
// exclusion, and the hot query that auto mode fans out.
std::vector<QuerySpec> MakeMix(const Lake& lake, unsigned intra_threads) {
  std::vector<QuerySpec> mix;
  for (const QueryCase& q : lake.queries) {
    for (int k : {3, 10}) {
      QuerySpec spec;
      spec.table = &q.query;
      spec.key_columns = q.key_columns;
      spec.options.k = k;
      mix.push_back(spec);
    }
  }
  mix.back().options.exclude_tables = {0, 3};
  QuerySpec hot;
  hot.table = &lake.hot_query;
  hot.key_columns = {0, 1};
  hot.options.k = 5;
  mix.push_back(hot);
  for (QuerySpec& spec : mix) spec.intra_query_threads = intra_threads;
  return mix;
}

void ExpectSameResult(const DiscoveryResult& want, const DiscoveryResult& got,
                      const std::string& label) {
  ASSERT_EQ(want.top_k.size(), got.top_k.size()) << label;
  for (size_t i = 0; i < want.top_k.size(); ++i) {
    EXPECT_EQ(want.top_k[i].table_id, got.top_k[i].table_id) << label;
    EXPECT_EQ(want.top_k[i].joinability, got.top_k[i].joinability) << label;
    EXPECT_EQ(want.top_k[i].best_mapping, got.top_k[i].best_mapping)
        << label;
  }
  const DiscoveryStats& a = want.stats;
  const DiscoveryStats& b = got.stats;
  EXPECT_EQ(a.pl_items_fetched, b.pl_items_fetched) << label;
  EXPECT_EQ(a.candidate_tables, b.candidate_tables) << label;
  EXPECT_EQ(a.tables_evaluated, b.tables_evaluated) << label;
  EXPECT_EQ(a.tables_pruned_rule1, b.tables_pruned_rule1) << label;
  EXPECT_EQ(a.tables_pruned_rule2, b.tables_pruned_rule2) << label;
  EXPECT_EQ(a.tables_recounted, b.tables_recounted) << label;
  EXPECT_EQ(a.rows_checked, b.rows_checked) << label;
  EXPECT_EQ(a.rows_skipped, b.rows_skipped) << label;
  EXPECT_EQ(a.rows_sent_to_verification, b.rows_sent_to_verification)
      << label;
  EXPECT_EQ(a.rows_true_positive, b.rows_true_positive) << label;
  EXPECT_EQ(a.value_comparisons, b.value_comparisons) << label;
  EXPECT_EQ(a.shards_used, b.shards_used) << label;
  EXPECT_EQ(a.fanout_threads, b.fanout_threads) << label;
}

constexpr int kCallers = 4;
constexpr int kRounds = 3;

TEST(SessionConcurrencyTest, ConcurrentDiscoversMatchTheirSerialReferences) {
  const Lake lake = MakeLake();
  for (unsigned pool_width : {1u, 4u}) {
    for (unsigned intra : {0u, 1u, 4u}) {
      const std::vector<QuerySpec> mix = MakeMix(lake, intra);
      // References: each spec alone, on an uncached session of the same
      // pool width, so the execution shape (and with it every work
      // counter) is the one the concurrent calls resolve too.
      std::vector<DiscoveryResult> refs;
      {
        Session serial = OpenSession(pool_width, 0);
        for (const QuerySpec& spec : mix) {
          auto result = serial.Discover(spec);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          refs.push_back(std::move(*result));
        }
      }
      if (pool_width > 1 && intra != 1) {
        EXPECT_GT(refs.back().stats.shards_used, 1u)
            << "the hot query must fan out";
      }
      for (size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
        const std::string label =
            "pool=" + std::to_string(pool_width) +
            " intra=" + std::to_string(intra) +
            (cache_bytes > 0 ? " cache=on" : " cache=off");
        Session session = OpenSession(pool_width, cache_bytes);
        std::vector<std::vector<DiscoveryResult>> got(kCallers);
        std::vector<std::thread> callers;
        for (int c = 0; c < kCallers; ++c) {
          callers.emplace_back([&, c] {
            // Each caller walks the mix from its own offset, so different
            // queries and repeats of one query overlap.
            for (int round = 0; round < kRounds; ++round) {
              for (size_t i = 0; i < mix.size(); ++i) {
                const size_t q = (i + c * 3) % mix.size();
                auto result = session.Discover(mix[q]);
                ASSERT_TRUE(result.ok()) << result.status().ToString();
                got[c].push_back(std::move(*result));
              }
            }
          });
        }
        for (std::thread& t : callers) t.join();
        for (int c = 0; c < kCallers; ++c) {
          ASSERT_EQ(got[c].size(), kRounds * mix.size()) << label;
          for (size_t n = 0; n < got[c].size(); ++n) {
            const size_t q = (n % mix.size() + c * 3) % mix.size();
            ExpectSameResult(refs[q], got[c][n],
                             label + " caller=" + std::to_string(c) +
                                 " query=" + std::to_string(q));
          }
        }
        if (cache_bytes > 0) {
          const ResultCacheStats cache = session.cache_stats();
          EXPECT_EQ(cache.hits + cache.misses,
                    static_cast<uint64_t>(kCallers * kRounds * mix.size()))
              << label;
        }
      }
    }
  }
}

TEST(SessionConcurrencyTest, BatchesEstimatesAndDiscoversOverlap) {
  // A batch runs each query exactly as Discover runs it alone, so batch
  // results and cache hits filled by a batch leader equal the references
  // field by field, execution shape included.
  const Lake lake = MakeLake();
  for (unsigned pool_width : {1u, 4u}) {
    for (unsigned intra : {0u, 1u, 4u}) {
      const std::vector<QuerySpec> mix = MakeMix(lake, intra);
      std::vector<DiscoveryResult> refs;
      std::vector<uint64_t> estimates;
      {
        Session serial = OpenSession(pool_width, 0);
        for (const QuerySpec& spec : mix) {
          refs.push_back(*serial.Discover(spec));
          estimates.push_back(*serial.EstimatePlItems(spec));
        }
      }
      for (size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
        const std::string label =
            "pool=" + std::to_string(pool_width) +
            " intra=" + std::to_string(intra) +
            (cache_bytes > 0 ? " cache=on" : " cache=off");
        Session session = OpenSession(pool_width, cache_bytes);
        std::vector<std::thread> callers;
        // Two batch callers, one estimating caller, one single-query
        // caller.
        for (int c = 0; c < 2; ++c) {
          callers.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round) {
              auto batch = session.DiscoverBatch(mix);
              ASSERT_TRUE(batch.ok()) << batch.status().ToString();
              ASSERT_EQ(batch->results.size(), mix.size());
              for (size_t q = 0; q < mix.size(); ++q) {
                ExpectSameResult(refs[q], batch->results[q],
                                 label + " batch query=" + std::to_string(q));
              }
            }
          });
        }
        callers.emplace_back([&] {
          for (int round = 0; round < kRounds * 4; ++round) {
            for (size_t q = 0; q < mix.size(); ++q) {
              auto estimate = session.EstimatePlItems(mix[q]);
              ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
              EXPECT_EQ(*estimate, estimates[q]) << label;
            }
          }
        });
        callers.emplace_back([&] {
          for (int round = 0; round < kRounds; ++round) {
            for (size_t q = 0; q < mix.size(); ++q) {
              auto result = session.Discover(mix[q]);
              ASSERT_TRUE(result.ok()) << result.status().ToString();
              ExpectSameResult(refs[q], *result,
                               label + " discover query=" + std::to_string(q));
            }
          }
        });
        for (std::thread& t : callers) t.join();
      }
    }
  }
}

TEST(SessionDeathTest, MutatorsAssertNoQueryInFlight) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // RunBatch holds a query call in flight while its callback runs; each
  // mutator below needs an idle session. Release builds run the calls,
  // which are harmless here: nothing else reads the session meanwhile, and
  // SetNumThreads to the current width keeps the pool.
  const auto during_query = [](void (*mutate)(Session*)) {
    Session session = OpenSession(1, 1 << 20);
    session.RunBatch(1, [&](size_t) {
      mutate(&session);
      return DiscoveryResult{};
    });
  };
  EXPECT_DEBUG_DEATH(
      during_query([](Session* s) { s->ConfigureCache(1 << 10); }),
      "ConfigureCache needs an idle session");
  EXPECT_DEBUG_DEATH(during_query([](Session* s) {
                       (void)s->ResetHash(HashFamily::kXash, 128);
                     }),
                     "ResetHash needs an idle session");
  EXPECT_DEBUG_DEATH(
      during_query([](Session* s) { s->SetNumThreads(s->num_threads()); }),
      "SetNumThreads needs an idle session");
}

}  // namespace
}  // namespace mate
