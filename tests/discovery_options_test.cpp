// Property matrix over DiscoveryOptions: for every combination of
// {row filter on/off} x {table filters on/off} x {hash size} x {k} x
// {semi-join on/off}, the reported top-k scores must be identical (filters
// are performance knobs, never correctness knobs), and the work counters
// must move in the direction each knob promises.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/mate.h"
#include "index/index_builder.h"
#include "workload/generator.h"
#include "workload/query_gen.h"

namespace mate {
namespace {

struct World {
  Corpus corpus;
  std::vector<QueryCase> queries;
};

const World& SharedWorld() {
  static const World* world = [] {
    auto* w = new World();
    Vocabulary vocab = Vocabulary::Generate(300, Vocabulary::Style::kMixed,
                                            321);
    CorpusSpec spec;
    spec.num_tables = 35;
    spec.min_columns = 2;
    spec.max_columns = 7;
    spec.column_tail_exponent = 2.0;
    spec.seed = 322;
    w->corpus = GenerateCorpus(spec, vocab);
    QuerySetSpec qspec;
    qspec.num_queries = 3;
    qspec.query_rows = 30;
    qspec.key_size = 2;
    qspec.planted_tables = 6;
    qspec.seed = 323;
    w->queries = GenerateQueries(&w->corpus, vocab, qspec);
    return w;
  }();
  return *world;
}

using OptionsParam = std::tuple<bool, bool, size_t, int, bool>;

class DiscoveryOptionsTest : public testing::TestWithParam<OptionsParam> {};

TEST_P(DiscoveryOptionsTest, ScoresInvariantUnderKnobs) {
  auto [row_filter, table_filters, hash_bits, k, semi_join] = GetParam();
  const World& world = SharedWorld();
  IndexBuildOptions build;
  build.hash_bits = hash_bits;
  auto index = BuildIndex(world.corpus, build);
  ASSERT_TRUE(index.ok());
  MateSearch mate(&world.corpus, index->get());

  DiscoveryOptions reference;  // everything on, same k
  reference.k = k;
  DiscoveryOptions configured;
  configured.k = k;
  configured.use_row_filter = row_filter;
  configured.use_table_filters = table_filters;
  configured.use_semi_join = semi_join;

  for (const QueryCase& qc : world.queries) {
    DiscoveryResult expect = mate.Discover(qc.query, qc.key_columns,
                                           reference);
    DiscoveryResult actual = mate.Discover(qc.query, qc.key_columns,
                                           configured);
    ASSERT_EQ(expect.top_k.size(), actual.top_k.size());
    for (size_t i = 0; i < expect.top_k.size(); ++i) {
      EXPECT_EQ(expect.top_k[i].table_id, actual.top_k[i].table_id);
      EXPECT_EQ(expect.top_k[i].joinability, actual.top_k[i].joinability);
    }

    // Knob direction checks.
    if (!row_filter) {
      EXPECT_EQ(actual.stats.rows_checked,
                actual.stats.rows_sent_to_verification);
      EXPECT_EQ(actual.stats.rows_skipped, 0u);  // SCR: no semi-join
    } else {
      EXPECT_LE(actual.stats.rows_sent_to_verification,
                actual.stats.rows_checked);
    }
    if (!semi_join) {
      EXPECT_EQ(actual.stats.rows_skipped, 0u);
    }
    if (!table_filters) {
      // Every fetched item is walked or skipped.
      EXPECT_EQ(actual.stats.rows_checked + actual.stats.rows_skipped,
                actual.stats.pl_items_fetched);
      EXPECT_EQ(actual.stats.tables_pruned_rule1, 0u);
      EXPECT_EQ(actual.stats.tables_pruned_rule2, 0u);
      EXPECT_EQ(actual.stats.tables_evaluated,
                actual.stats.candidate_tables);
    }
  }
}

std::string OptionsName(const testing::TestParamInfo<OptionsParam>& info) {
  auto [row_filter, table_filters, hash_bits, k, semi_join] = info.param;
  std::string name = row_filter ? "rf1" : "rf0";
  name += table_filters ? "_tf1" : "_tf0";
  name += "_b" + std::to_string(hash_bits);
  name += "_k" + std::to_string(k);
  if (!semi_join) name += "_sj0";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    KnobMatrix, DiscoveryOptionsTest,
    testing::Combine(testing::Bool(), testing::Bool(),
                     testing::Values(size_t{128}, size_t{512}),
                     testing::Values(1, 3, 8), testing::Bool()),
    OptionsName);

TEST(DiscoveryOptionsInteractionTest, SmallerKPrunesMoreOrEqualTables) {
  const World& world = SharedWorld();
  auto index = BuildIndex(world.corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  MateSearch mate(&world.corpus, index->get());
  for (const QueryCase& qc : world.queries) {
    DiscoveryOptions k1, k8;
    k1.k = 1;
    k8.k = 8;
    DiscoveryResult r1 = mate.Discover(qc.query, qc.key_columns, k1);
    DiscoveryResult r8 = mate.Discover(qc.query, qc.key_columns, k8);
    // A tighter k raises the pruning threshold earlier: never evaluates
    // more tables than a looser k.
    EXPECT_LE(r1.stats.tables_evaluated, r8.stats.tables_evaluated);
    // And the k=1 winner is k=8's first entry.
    if (!r1.top_k.empty() && !r8.top_k.empty()) {
      EXPECT_EQ(r1.top_k[0].table_id, r8.top_k[0].table_id);
      EXPECT_EQ(r1.top_k[0].joinability, r8.top_k[0].joinability);
    }
  }
}

TEST(DiscoveryOptionsInteractionTest, InitStrategyNeverChangesScores) {
  const World& world = SharedWorld();
  auto index = BuildIndex(world.corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  MateSearch mate(&world.corpus, index->get());
  const InitColumnStrategy strategies[] = {
      InitColumnStrategy::kMinCardinality, InitColumnStrategy::kColumnOrder,
      InitColumnStrategy::kLongestString, InitColumnStrategy::kBestCase,
      InitColumnStrategy::kWorstCase};
  for (const QueryCase& qc : world.queries) {
    for (const bool semi_join : {true, false}) {
      DiscoveryOptions base;
      base.k = 5;
      base.use_semi_join = semi_join;
      DiscoveryResult reference =
          mate.Discover(qc.query, qc.key_columns, base);
      for (InitColumnStrategy strategy : strategies) {
        const std::string label =
            std::string(InitColumnStrategyName(strategy)) +
            (semi_join ? "" : " no semi-join");
        DiscoveryOptions options = base;
        options.init_strategy = strategy;
        DiscoveryResult result = mate.Discover(qc.query, qc.key_columns,
                                               options);
        ASSERT_EQ(result.top_k.size(), reference.top_k.size()) << label;
        for (size_t i = 0; i < result.top_k.size(); ++i) {
          EXPECT_EQ(result.top_k[i].joinability,
                    reference.top_k[i].joinability)
              << label;
          EXPECT_EQ(result.top_k[i].table_id, reference.top_k[i].table_id)
              << label;
          EXPECT_EQ(result.top_k[i].best_mapping,
                    reference.top_k[i].best_mapping)
              << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mate
