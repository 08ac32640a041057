// Exactness of the posting-list verifier against the cell-based oracle
// (BruteForceJoinability), which shares no verification code with it:
//   * a row repeating one key value across many columns has more column
//     assignments than kMaxMappingsPerRowCombo; MATE, SCR and MCR must
//     still report the exact joinability and best mapping;
//   * on a lake of hostile cells — whitespace padding, case variants,
//     empty and NUL-containing cells, values repeated across columns,
//     tombstoned rows — the three systems' top-k over a lazily reopened
//     session equals the oracle's ranking, parses no cells, and still does
//     after a §5.4 edit script (UpdateCell, DropColumn, AddAppendedColumn,
//     DeleteRow), where verification trusts the maintained index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baselines/mcr.h"
#include "baselines/scr.h"
#include "core/mate.h"
#include "core/session.h"
#include "index/index_builder.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace mate {
namespace {

// ---- the mapping cap ------------------------------------------------

// 21 columns. Rows 0-9 hold "a" in the last `a_columns` of columns 0-19;
// rows 10-19 hold "a" only in columns 17-19. Column 20 holds "b<r>", every
// other cell unique junk. The best mapping is (17, 18, 19, 20), matched by
// all 20 rows.
Table MakeRepeatedValueTable(size_t a_columns) {
  Table table("repeated");
  for (int c = 0; c < 21; ++c) table.AddColumn("c" + std::to_string(c));
  for (int r = 0; r < 20; ++r) {
    std::vector<std::string> cells;
    const int first_a = r < 10 ? 20 - static_cast<int>(a_columns) : 17;
    for (int c = 0; c < 20; ++c) {
      std::string junk = "junk" + std::to_string(r) + "_" + std::to_string(c);
      cells.push_back(c >= first_a ? "a" : junk);
    }
    cells.push_back("b" + std::to_string(r));
    (void)table.AppendRow(std::move(cells));
  }
  return table;
}

Table MakeRepeatedValueQuery() {
  Table query("q");
  for (int c = 0; c < 4; ++c) query.AddColumn("k" + std::to_string(c));
  for (int r = 0; r < 20; ++r) {
    (void)query.AppendRow({"a", "a", "a", "b" + std::to_string(r)});
  }
  return query;
}

TEST(MappingCapTest, RepeatedKeyValueIsCountedExactly) {
  for (const size_t a_columns : {size_t{20}, size_t{12}}) {
    SCOPED_TRACE("a_columns=" + std::to_string(a_columns));
    Corpus corpus;
    corpus.AddTable(MakeRepeatedValueTable(a_columns));
    auto index = BuildIndex(corpus, IndexBuildOptions{});
    ASSERT_TRUE(index.ok());
    const Table query = MakeRepeatedValueQuery();
    const std::vector<ColumnId> keys = {0, 1, 2, 3};

    const BruteForceResult oracle =
        BruteForceJoinability(query, keys, corpus.table(0));
    ASSERT_EQ(oracle.joinability, 20);
    ASSERT_EQ(oracle.best_mapping, (std::vector<ColumnId>{17, 18, 19, 20}));

    // The layouts are laid out for an init column holding "a", the column
    // the cardinality rule takes (the default would fetch the b column).
    DiscoveryOptions options;
    options.k = 3;
    options.init_strategy = InitColumnStrategy::kMinCardinality;
    const DiscoveryResult mate =
        MateSearch(&corpus, index->get()).Discover(query, keys, options);
    const DiscoveryResult scr =
        ScrSearch(&corpus, index->get()).Discover(query, keys, options);
    const DiscoveryResult mcr =
        McrSearch(&corpus, index->get()).Discover(query, keys, options);
    for (const DiscoveryResult* result : {&mate, &scr, &mcr}) {
      ASSERT_EQ(result->top_k.size(), 1u);
      EXPECT_EQ(result->top_k[0].joinability, oracle.joinability);
      EXPECT_EQ(result->top_k[0].best_mapping, oracle.best_mapping);
    }
    // MCR binds no column up front, so its rows pass the cap in both
    // layouts; MATE and SCR fix the init column and pass it only when 20
    // columns repeat "a".
    EXPECT_EQ(mcr.stats.tables_recounted, 1u);
    EXPECT_EQ(mate.stats.tables_recounted, a_columns == 20 ? 1u : 0u);
  }
}

TEST(MappingCapTest, RecountKeepsTheSmallestBestMapping) {
  // Every row holds "x" in all six columns: P(6, 3) = 120 assignments per
  // row, P(5, 2) = 20 with a fixed column, so the cap never fires and the
  // accumulator ties break to the smallest mapping. A seventh and eighth
  // column push MCR over the cap (P(8, 3) = 336); the recount must land on
  // the same answer the uncapped enumeration gives.
  for (const int columns : {6, 8}) {
    Table table("all_x");
    for (int c = 0; c < columns; ++c) table.AddColumn("c" + std::to_string(c));
    for (int r = 0; r < 4; ++r) {
      (void)table.AppendRow(std::vector<std::string>(columns, "x"));
    }
    Corpus corpus;
    corpus.AddTable(std::move(table));
    auto index = BuildIndex(corpus, IndexBuildOptions{});
    ASSERT_TRUE(index.ok());
    Table query("q");
    for (int c = 0; c < 3; ++c) query.AddColumn("k" + std::to_string(c));
    (void)query.AppendRow({"x", "X", " x"});
    const std::vector<ColumnId> keys = {0, 1, 2};
    const DiscoveryResult mcr =
        McrSearch(&corpus, index->get()).Discover(query, keys, {});
    ASSERT_EQ(mcr.top_k.size(), 1u);
    EXPECT_EQ(mcr.top_k[0].joinability, 1);
    EXPECT_EQ(mcr.top_k[0].best_mapping, (std::vector<ColumnId>{0, 1, 2}));
    EXPECT_EQ(mcr.stats.tables_recounted, columns == 8 ? 1u : 0u);
  }
}

// ---- hostile lake vs the oracle -------------------------------------

constexpr const char* kWords[] = {"alpha", "beta", "gamma", "delta", "eps",
                                  "zeta"};

// A spelling of `word` that normalizes back to it.
std::string Variant(const std::string& word, uint64_t pick) {
  switch (pick % 5) {
    case 1:
      return std::string(1, static_cast<char>(word[0] - 'a' + 'A')) +
             word.substr(1);
    case 2:
      return " " + word + "  ";
    case 3: {
      std::string upper = word;
      for (char& ch : upper) ch = static_cast<char>(ch - 'a' + 'A');
      return "\t" + upper + "\n";
    }
    default:
      return word;
  }
}

// Empty, whitespace-only and NUL-containing cells, or a spelled word.
std::string HostileCell(Rng* rng) {
  switch (rng->Uniform(12)) {
    case 0:
      return "";
    case 1:
      return "  \t";
    case 2:
      return std::string("al\0pha", 6);
    case 3:
      return std::string(1, '\0');
    default:
      return Variant(kWords[rng->Uniform(6)], rng->Uniform(5));
  }
}

Corpus MakeHostileLake() {
  Rng rng(2024);
  Corpus corpus;
  for (int t = 0; t < 12; ++t) {
    Table table("hostile_" + std::to_string(t));
    const size_t columns = 2 + rng.Uniform(4);
    for (size_t c = 0; c < columns; ++c) {
      table.AddColumn("c" + std::to_string(c));
    }
    const size_t rows = 6 + rng.Uniform(9);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> cells;
      for (size_t c = 0; c < columns; ++c) cells.push_back(HostileCell(&rng));
      (void)table.AppendRow(std::move(cells));
    }
    for (RowId r = 1; r < rows; r += 5) (void)table.DeleteRow(r);
    corpus.AddTable(std::move(table));
  }
  return corpus;
}

struct HostileQuery {
  Table table;
  std::vector<ColumnId> key_columns;
};

// Key rows copied from lake rows, some in a different spelling (so they
// join), mixed with hostile rows of their own.
std::vector<HostileQuery> MakeHostileQueries(const Corpus& lake) {
  Rng rng(77);
  std::vector<HostileQuery> queries;
  for (size_t key_size : {1, 1, 2, 2, 3, 3}) {
    HostileQuery q{Table("q" + std::to_string(queries.size())), {}};
    for (size_t c = 0; c < key_size + 1; ++c) {
      q.table.AddColumn("k" + std::to_string(c));
    }
    // Key columns in reverse order, so mappings are not the identity.
    for (size_t i = 0; i < key_size; ++i) {
      q.key_columns.push_back(static_cast<ColumnId>(key_size - 1 - i));
    }
    for (int r = 0; r < 10; ++r) {
      std::vector<std::string> cells(key_size + 1, "payload");
      const Table& source =
          lake.table(static_cast<TableId>(rng.Uniform(lake.NumTables())));
      const RowId row = static_cast<RowId>(rng.Uniform(source.NumRows()));
      if (r % 3 != 2 && source.NumColumns() >= key_size) {
        for (size_t i = 0; i < key_size; ++i) {
          const ColumnId from =
              static_cast<ColumnId>((i + r) % source.NumColumns());
          std::string value = std::string(source.cell(row, from));
          cells[q.key_columns[i]] = r % 2 == 0 ? value : " " + value + " ";
        }
      } else {
        for (size_t i = 0; i < key_size; ++i) {
          cells[q.key_columns[i]] = HostileCell(&rng);
        }
      }
      (void)q.table.AppendRow(std::move(cells));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

// The oracle's top-k: BruteForceJoinability over every table, ranked by
// score desc, table id asc, joinability 0 never reported.
std::vector<TableResult> OracleTopK(const Corpus& corpus,
                                    const HostileQuery& q, size_t k) {
  std::vector<TableResult> all;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    BruteForceResult brute =
        BruteForceJoinability(q.table, q.key_columns, corpus.table(t));
    if (brute.joinability > 0) {
      all.push_back({t, brute.joinability, std::move(brute.best_mapping)});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TableResult& a, const TableResult& b) {
              return a.joinability != b.joinability
                         ? a.joinability > b.joinability
                         : a.table_id < b.table_id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameTopK(const std::vector<TableResult>& expected,
                    const std::vector<TableResult>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].table_id, actual[i].table_id) << i;
    EXPECT_EQ(expected[i].joinability, actual[i].joinability) << i;
    EXPECT_EQ(expected[i].best_mapping, actual[i].best_mapping) << i;
  }
}

// MATE, SCR and MCR over `session` against the oracle over `oracle`;
// returns how many queries joined anything (so a vacuous lake fails).
size_t ExpectSystemsMatchOracle(Session* session, const Corpus& oracle,
                                const std::vector<HostileQuery>& queries) {
  constexpr int kTopK = 4;
  size_t joined = 0;
  McrSearch mcr(&session->corpus(), &session->index());
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const HostileQuery& q = queries[i];
    const std::vector<TableResult> expected = OracleTopK(oracle, q, kTopK);
    if (!expected.empty()) ++joined;
    for (const bool row_filter : {true, false}) {
      SCOPED_TRACE(row_filter ? "MATE" : "SCR");
      QuerySpec spec;
      spec.table = &q.table;
      spec.key_columns = q.key_columns;
      spec.options.k = kTopK;
      spec.options.use_row_filter = row_filter;
      auto result = session->Discover(spec);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) ExpectSameTopK(expected, result->top_k);
    }
    DiscoveryOptions options;
    options.k = kTopK;
    SCOPED_TRACE("MCR");
    ExpectSameTopK(expected,
                   mcr.Discover(q.table, q.key_columns, options).top_k);
  }
  return joined;
}

TEST(OracleDifferentialTest, SeparatorByteInsideValuesMatchesTheOracle) {
  // Byte 0x1F survives normalization. Table 0 holds both combos of query
  // 0, which stay distinct; table 1 holds one value pair that would spell
  // query 1's combo if values were joined with that byte.
  const auto make_table = [](const std::string& name,
                             std::vector<std::vector<std::string>> rows) {
    Table table(name);
    table.AddColumn("x");
    table.AddColumn("y");
    for (auto& row : rows) (void)table.AppendRow(std::move(row));
    return table;
  };
  const std::string ab = "a\x1F" "b";
  const std::string bc = "b\x1F" "c";
  const auto make_lake = [&] {
    Corpus lake;
    lake.AddTable(make_table("both", {{ab, "c"}, {"a", bc}}));
    lake.AddTable(make_table("split", {{"a", bc}}));
    return lake;
  };
  const Corpus oracle = make_lake();
  std::vector<HostileQuery> queries;
  queries.push_back({make_table("q0", {{ab, "c"}, {"a", bc}}), {0, 1}});
  queries.push_back({make_table("q1", {{ab, "c"}}), {0, 1}});
  ASSERT_EQ(BruteForceJoinability(queries[0].table, {0, 1}, oracle.table(0))
                .joinability,
            2);
  ASSERT_EQ(BruteForceJoinability(queries[1].table, {0, 1}, oracle.table(1))
                .joinability,
            0);

  SessionOptions options;
  options.corpus = make_lake();
  options.build_index = true;
  options.cache_bytes = 0;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(ExpectSystemsMatchOracle(&*session, oracle, queries), 2u);
}

TEST(OracleDifferentialTest, HostileLakeMatchesTheOracleBeforeAndAfterEdits) {
  Corpus oracle = MakeHostileLake();
  const std::vector<HostileQuery> queries = MakeHostileQueries(oracle);
  const std::string corpus_path =
      testing::TempDir() + "/mate_hostile.corpus";
  const std::string index_path = testing::TempDir() + "/mate_hostile.index";
  {
    SessionOptions build;
    build.corpus = MakeHostileLake();  // identical bytes to `oracle`
    build.build_index = true;
    auto builder = Session::Open(std::move(build));
    ASSERT_TRUE(builder.ok()) << builder.status().ToString();
    ASSERT_TRUE(builder->Save(corpus_path, index_path).ok());
  }
  SessionOptions options;
  options.corpus_path = corpus_path;
  options.index_path = index_path;
  options.num_threads = 2;
  options.cache_bytes = 0;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->WaitUntilReady().ok());

  EXPECT_GE(ExpectSystemsMatchOracle(&*session, oracle, queries), 3u);
  EXPECT_EQ(session->corpus().tables_resident(), 0u);

  // §5.4 edit script, applied to the session's corpus and index and to the
  // oracle's corpus alike.
  Corpus* lake = session->mutable_corpus();
  InvertedIndex* index = session->mutable_index();
  const auto live_row = [&](TableId t) {
    RowId r = 0;
    while (oracle.table(t).IsRowDeleted(r)) ++r;
    return r;
  };
  {  // UpdateCell: a hostile spelling of another word.
    const TableId t = 0;
    const RowId r = live_row(t);
    const std::string old_normalized =
        NormalizeValue(lake->table(t).cell(r, 0));
    for (Corpus* c : {lake, &oracle}) {
      ASSERT_TRUE(c->mutable_table(t)->SetCell(r, 0, "  GAMMA ").ok());
    }
    ASSERT_TRUE(index->UpdateCell(*lake, t, r, 0, old_normalized).ok());
  }
  {  // DropColumn: shifts every later column's postings down by one.
    const TableId t = 1;
    std::vector<std::string> removed;
    for (RowId r = 0; r < lake->table(t).NumRows(); ++r) {
      removed.emplace_back(lake->table(t).cell(r, 0));
    }
    for (Corpus* c : {lake, &oracle}) {
      ASSERT_TRUE(c->mutable_table(t)->DropColumn(0).ok());
    }
    ASSERT_TRUE(index->DropColumn(*lake, t, 0, removed).ok());
  }
  {  // AddAppendedColumn: repeats a word already in the table.
    const TableId t = 2;
    std::vector<std::string> cells;
    for (RowId r = 0; r < lake->table(t).NumRows(); ++r) {
      cells.push_back(Variant(kWords[r % 6], r));
    }
    for (Corpus* c : {lake, &oracle}) {
      ASSERT_TRUE(c->mutable_table(t)->AddColumnWithCells("added", cells).ok());
    }
    ASSERT_TRUE(index->AddAppendedColumn(*lake, t).ok());
  }
  {  // DeleteRow: the index first, while the row is still live.
    const TableId t = 3;
    const RowId r = live_row(t);
    ASSERT_TRUE(index->DeleteRow(*lake, t, r).ok());
    for (Corpus* c : {lake, &oracle}) {
      ASSERT_TRUE(c->mutable_table(t)->DeleteRow(r).ok());
    }
  }
  const size_t resident_after_edits = session->corpus().tables_resident();
  EXPECT_GE(ExpectSystemsMatchOracle(&*session, oracle, queries), 3u);
  EXPECT_EQ(session->corpus().tables_resident(), resident_after_edits);

  std::remove(corpus_path.c_str());
  std::remove(index_path.c_str());
}

}  // namespace
}  // namespace mate
