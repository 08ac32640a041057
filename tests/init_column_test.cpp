#include "core/init_column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/query_executor.h"
#include "index/index_builder.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace mate {
namespace {

// Corpus where "common" has a long posting list and "rare" a short one.
Corpus MakeSkewedCorpus() {
  Corpus corpus;
  for (int t = 0; t < 10; ++t) {
    Table table("t" + std::to_string(t));
    table.AddColumn("a");
    table.AddColumn("b");
    for (int r = 0; r < 5; ++r) {
      (void)table.AppendRow({"common", "filler" + std::to_string(t * 10 + r)});
    }
    corpus.AddTable(std::move(table));
  }
  Table rare_table("rare_t");
  rare_table.AddColumn("a");
  rare_table.AddColumn("b");
  (void)rare_table.AppendRow({"rare", "common"});
  corpus.AddTable(std::move(rare_table));
  return corpus;
}

std::unique_ptr<InvertedIndex> Build(const Corpus& corpus) {
  auto index = BuildIndex(corpus, IndexBuildOptions{});
  EXPECT_TRUE(index.ok());
  return std::move(*index);
}

Table MakeQuery() {
  // Column 0: 2 distinct values, both common (big PLs).
  // Column 1: 3 distinct values, rare (small PLs).
  // Column 2: 1 distinct value with the longest strings.
  Table q("q");
  q.AddColumn("common_col");
  q.AddColumn("rare_col");
  q.AddColumn("long_col");
  (void)q.AppendRow({"common", "rare", "averyveryverylongstringvalue"});
  (void)q.AppendRow({"common", "rare2", "averyveryverylongstringvalue"});
  (void)q.AppendRow({"common2", "rare3", "averyveryverylongstringvalue"});
  return q;
}

// PL items per key position of `keys`, as discovery counts them.
std::vector<uint64_t> PlItems(const Table& q, const std::vector<ColumnId>& keys,
                              const InvertedIndex& index) {
  const KeyCombos combos = InternKeyCombos(q, keys);
  return PlItemsPerPosition(combos, ProbeKeyValues(combos, index));
}

TEST(InitColumnTest, CountPlItems) {
  Corpus corpus = MakeSkewedCorpus();
  auto index = Build(corpus);
  Table q = MakeQuery();
  const std::vector<uint64_t> items = PlItems(q, {0, 1, 2}, *index);
  ASSERT_EQ(items.size(), 3u);
  // "common" appears 50x in column a plus 1x in rare_t.b; "common2" never.
  EXPECT_EQ(items[0], 51u);
  // "rare" appears once; rare2/rare3 never.
  EXPECT_EQ(items[1], 1u);
  EXPECT_EQ(items[2], 0u);
}

TEST(InitColumnTest, MinCardinalityPicksFewestDistinct) {
  Table q = MakeQuery();
  // Cardinalities: col0 = 2, col1 = 3, col2 = 1.
  EXPECT_EQ(SelectInitColumn(q, {0, 1, 2}, InternKeyCombos(q, {0, 1, 2}),
                             InitColumnStrategy::kMinCardinality, nullptr),
            2u);
  EXPECT_EQ(SelectInitColumn(q, {1, 0}, InternKeyCombos(q, {1, 0}),
                             InitColumnStrategy::kMinCardinality, nullptr),
            1u);  // position of col 0 in the key list
}

TEST(InitColumnTest, ColumnOrderPicksFirst) {
  Table q = MakeQuery();
  EXPECT_EQ(SelectInitColumn(q, {2, 1}, InternKeyCombos(q, {2, 1}),
                             InitColumnStrategy::kColumnOrder, nullptr),
            0u);
}

TEST(InitColumnTest, LongestStringPicksLongCell) {
  Table q = MakeQuery();
  EXPECT_EQ(SelectInitColumn(q, {0, 1, 2}, InternKeyCombos(q, {0, 1, 2}),
                             InitColumnStrategy::kLongestString, nullptr),
            2u);
}

TEST(InitColumnTest, OraclesBracketTheHeuristics) {
  Corpus corpus = MakeSkewedCorpus();
  auto index = Build(corpus);
  Table q = MakeQuery();
  std::vector<ColumnId> key = {0, 1, 2};
  const KeyCombos combos = InternKeyCombos(q, key);
  const std::vector<uint64_t> items = PlItems(q, key, *index);
  size_t best = SelectInitColumn(q, key, combos, InitColumnStrategy::kBestCase,
                                 &items);
  size_t worst = SelectInitColumn(q, key, combos,
                                  InitColumnStrategy::kWorstCase, &items);
  EXPECT_EQ(best, 2u);   // 0 PL items
  EXPECT_EQ(worst, 0u);  // 51 PL items
  uint64_t best_cost = items[best];
  uint64_t worst_cost = items[worst];
  for (size_t i = 0; i < key.size(); ++i) {
    uint64_t cost = items[i];
    EXPECT_GE(cost, best_cost);
    EXPECT_LE(cost, worst_cost);
  }
}

TEST(InitColumnTest, TieBreaksTowardEarlierColumn) {
  Table q("q");
  q.AddColumn("a");
  q.AddColumn("b");
  (void)q.AppendRow({"x", "y"});  // both cardinality 1
  EXPECT_EQ(SelectInitColumn(q, {0, 1}, InternKeyCombos(q, {0, 1}),
                             InitColumnStrategy::kMinCardinality, nullptr),
            0u);
  EXPECT_EQ(SelectInitColumn(q, {1, 0}, InternKeyCombos(q, {1, 0}),
                             InitColumnStrategy::kMinCardinality, nullptr),
            0u);
  // Both positions fetch the same PL items.
  const std::vector<uint64_t> items = {7, 7};
  for (const InitColumnStrategy strategy :
       {InitColumnStrategy::kBestCase, InitColumnStrategy::kWorstCase}) {
    EXPECT_EQ(SelectInitColumn(q, {0, 1}, InternKeyCombos(q, {0, 1}),
                               strategy, &items),
              0u)
        << InitColumnStrategyName(strategy);
  }
}

// A query over four base values whose cells take every spelling
// normalization folds: empty, whitespace-only, padded and case-variant.
// Column c draws from the first 1 + c % 4 values, so the columns'
// cardinalities differ and tie; about one row in five is deleted.
Table NoisyQuery(Rng* rng, size_t columns, size_t rows) {
  static const char* const kBase[] = {"alpha", "beta", "gamma", "delta"};
  Table q("noisy");
  for (size_t c = 0; c < columns; ++c) q.AddColumn("c" + std::to_string(c));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    for (size_t c = 0; c < columns; ++c) {
      std::string cell = kBase[rng->Uniform(1 + c % 4)];
      switch (rng->Uniform(6)) {
        case 0: cell.clear(); break;
        case 1: cell = std::string(1 + rng->Uniform(3), " \t\r"[c % 3]); break;
        case 2: cell = " " + cell + "\t"; break;
        case 3: cell[rng->Uniform(cell.size())] -= 'a' - 'A'; break;
        default: break;
      }
      cells.push_back(std::move(cell));
    }
    (void)q.AppendRow(std::move(cells));
  }
  for (RowId r = 0; r < rows; ++r) {
    if (rng->Uniform(5) == 0) (void)q.DeleteRow(r);
  }
  return q;
}

// The PL items MATE fetches with key position `pos` as init column,
// counted from the table and the index: the lists of the column's distinct
// normalized values over the rows whose key cells are all non-empty.
uint64_t FetchedFrom(const Table& q, const std::vector<ColumnId>& keys,
                     size_t pos, const InvertedIndex& index) {
  std::set<std::string> probes;
  for (RowId r = 0; r < q.NumRows(); ++r) {
    if (q.IsRowDeleted(r)) continue;
    bool has_empty = false;
    for (const ColumnId c : keys) {
      has_empty = has_empty || NormalizeValue(q.cell(r, c)).empty();
    }
    if (!has_empty) probes.insert(NormalizeValue(q.cell(r, keys[pos])));
  }
  uint64_t fetched = 0;
  for (const std::string& value : probes) {
    fetched += index.Lookup(value).size();
  }
  return fetched;
}

// A lake posting the base values 1, 3, 9 and 27 times, so the columns of
// a NoisyQuery fetch different PL item counts.
Corpus MakePowerLake() {
  Corpus corpus;
  Table lake("lake");
  lake.AddColumn("v");
  lake.AddColumn("w");
  int copies = 1;
  for (const char* value : {"alpha", "beta", "gamma", "delta"}) {
    for (int i = 0; i < copies; ++i) (void)lake.AppendRow({value, "x"});
    copies *= 3;
  }
  corpus.AddTable(std::move(lake));
  return corpus;
}

// 1 to 4 distinct key columns of a `columns`-wide query, shuffled.
std::vector<ColumnId> RandomKeys(Rng* rng, size_t columns) {
  std::vector<ColumnId> keys;
  for (ColumnId c = 0; c < columns; ++c) keys.push_back(c);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng->Uniform(i)]);
  }
  keys.resize(1 + rng->Uniform(std::min<size_t>(4, columns)));
  return keys;
}

TEST(InitColumnTest, InternedCardinalityIsTheTableDefinition) {
  const Corpus corpus = MakePowerLake();
  const auto index = Build(corpus);
  const QueryExecutor executor(&corpus, index.get());

  Rng rng(2718);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t columns = 1 + rng.Uniform(6);
    const Table q = NoisyQuery(&rng, columns, rng.Uniform(12));
    const std::vector<ColumnId> keys = RandomKeys(&rng, columns);

    const KeyCombos combos = InternKeyCombos(q, keys);
    ASSERT_EQ(combos.cardinality.size(), keys.size());
    size_t expected = 0;  // the rule on Table::ColumnCardinality
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(combos.cardinality[i], q.ColumnCardinality(keys[i])) << i;
      if (q.ColumnCardinality(keys[i]) <
          q.ColumnCardinality(keys[expected])) {
        expected = i;
      }
    }
    // MATE passes its PL item counts, JOSIE's caller none: both get the
    // rule.
    const std::vector<uint64_t> items = PlItems(q, keys, *index);
    EXPECT_EQ(SelectInitColumn(q, keys, combos,
                               InitColumnStrategy::kMinCardinality, nullptr),
              expected);
    EXPECT_EQ(SelectInitColumn(q, keys, combos,
                               InitColumnStrategy::kMinCardinality, &items),
              expected);

    const uint64_t fetched = FetchedFrom(q, keys, expected, *index);
    DiscoveryOptions options;
    options.k = 3;
    options.init_strategy = InitColumnStrategy::kMinCardinality;
    const DiscoveryResult result =
        executor.Discover(q, keys, options, ExecutorOptions{}, nullptr);
    EXPECT_EQ(result.stats.pl_items_fetched, fetched);
    EXPECT_EQ(executor.EstimatePlItems(q, keys, options), fetched);
  }
}

TEST(InitColumnTest, DefaultFetchesTheCheapestKeyColumn) {
  const Corpus corpus = MakePowerLake();
  const auto index = Build(corpus);
  const QueryExecutor executor(&corpus, index.get());
  const InitColumnStrategy strategies[] = {
      InitColumnStrategy::kMinCardinality, InitColumnStrategy::kColumnOrder,
      InitColumnStrategy::kLongestString, InitColumnStrategy::kWorstCase,
      InitColumnStrategy::kBestCase};

  Rng rng(3141);
  bool beat_cardinality = false;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t columns = 1 + rng.Uniform(6);
    const Table q = NoisyQuery(&rng, columns, rng.Uniform(12));
    const std::vector<ColumnId> keys = RandomKeys(&rng, columns);

    std::vector<uint64_t> per_position;
    for (size_t i = 0; i < keys.size(); ++i) {
      per_position.push_back(FetchedFrom(q, keys, i, *index));
    }
    EXPECT_EQ(PlItems(q, keys, *index), per_position);
    const uint64_t cheapest =
        *std::min_element(per_position.begin(), per_position.end());

    DiscoveryOptions options;
    options.k = 3;
    EXPECT_EQ(executor.Discover(q, keys, options, ExecutorOptions{}, nullptr)
                  .stats.pl_items_fetched,
              cheapest);
    for (const InitColumnStrategy strategy : strategies) {
      options.init_strategy = strategy;
      const DiscoveryResult result =
          executor.Discover(q, keys, options, ExecutorOptions{}, nullptr);
      EXPECT_EQ(executor.EstimatePlItems(q, keys, options),
                result.stats.pl_items_fetched)
          << InitColumnStrategyName(strategy);
      EXPECT_GE(result.stats.pl_items_fetched, cheapest)
          << InitColumnStrategyName(strategy);
      if (strategy == InitColumnStrategy::kMinCardinality) {
        beat_cardinality =
            beat_cardinality || result.stats.pl_items_fetched > cheapest;
      }
    }
  }
  // Some query's cardinality column must cost more, or the default was
  // never told apart from the paper's rule.
  EXPECT_TRUE(beat_cardinality);
}

TEST(InitColumnTest, StrategyNames) {
  EXPECT_EQ(InitColumnStrategyName(InitColumnStrategy::kMinCardinality),
            "Cardinality");
  EXPECT_EQ(InitColumnStrategyName(InitColumnStrategy::kLongestString),
            "TLS");
  EXPECT_EQ(InitColumnStrategyName(InitColumnStrategy::kBestCase), "Best");
}

}  // namespace
}  // namespace mate
