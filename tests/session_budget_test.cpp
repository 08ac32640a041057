// Corpus memory governance at the Session level. Queries verify joins from
// the posting lists, so a lazily opened session — budgeted or not — must
// answer bit-identically to an unlimited run while parsing no cells at all:
// Discover, DiscoverBatch and the MCR baseline all leave the corpus cold,
// for single- and multi-column keys alike. The budget still governs the
// work that does materialize (Save).

#include "core/session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baselines/mcr.h"
#include "storage/table_store.h"
#include "util/rng.h"
#include "workload/query_gen.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

// Deterministic planted-join world (same recipe as session_open_async_test).
struct World {
  Corpus corpus;
  std::vector<QueryCase> queries;
};

World MakeWorld(size_t key_size) {
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
  spec.key_size = key_size;
  spec.planted_tables = 5;
  spec.seed = 3;
  w.queries = GenerateQueries(&w.corpus, vocab, spec);
  return w;
}

struct SavedWorld {
  World world;
  std::string corpus_path;
  std::string index_path;
};

SavedWorld SaveWorld(const std::string& tag, size_t key_size) {
  SavedWorld saved;
  saved.world = MakeWorld(key_size);
  saved.corpus_path = testing::TempDir() + "/mate_budget_" + tag + ".corpus";
  saved.index_path = testing::TempDir() + "/mate_budget_" + tag + ".index";
  SessionOptions build;
  build.corpus = MakeWorld(key_size).corpus;  // identical bytes
  build.build_index = true;
  auto session = Session::Open(std::move(build));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(session->Save(saved.corpus_path, saved.index_path).ok());
  return saved;
}

void RemoveWorld(const SavedWorld& saved) {
  std::remove(saved.corpus_path.c_str());
  std::remove(saved.index_path.c_str());
}

// Budget 0 = unlimited. The cache is always off: every query runs.
Session OpenGoverned(const SavedWorld& saved, uint64_t budget_bytes,
                     unsigned num_threads = 2) {
  SessionOptions options;
  options.corpus_path = saved.corpus_path;
  options.index_path = saved.index_path;
  options.num_threads = num_threads;
  options.cache_bytes = 0;
  options.corpus_budget_bytes = budget_bytes;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

std::vector<QuerySpec> MakeSpecs(const World& world) {
  std::vector<QuerySpec> specs;
  for (const QueryCase& qc : world.queries) {
    QuerySpec spec;
    spec.table = &qc.query;
    spec.key_columns = qc.key_columns;
    spec.options.k = 5;
    specs.push_back(std::move(spec));
  }
  return specs;
}

// Shape accessor — never materializes, so it reads the same from any
// residency state.
uint64_t TotalCellBytes(const Session& session) {
  uint64_t total = 0;
  for (TableId t = 0; t < session.corpus().NumTables(); ++t) {
    total += session.corpus().table_cell_bytes(t);
  }
  return total;
}

// Results and work counters must match bit for bit; residency counters are
// deliberately excluded (they are what a budget is allowed to change).
void ExpectBitIdentical(const DiscoveryResult& a, const DiscoveryResult& b) {
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
  EXPECT_EQ(a.stats.rows_sent_to_verification,
            b.stats.rows_sent_to_verification);
  EXPECT_EQ(a.stats.rows_true_positive, b.stats.rows_true_positive);
  EXPECT_EQ(a.stats.value_comparisons, b.stats.value_comparisons);
}

TEST(SessionBudgetTest, BudgetedDiscoverIsBitIdenticalAndEvictsAtIdle) {
  SavedWorld saved = SaveWorld("identical", /*key_size=*/2);
  Session unlimited = OpenGoverned(saved, /*budget_bytes=*/0);
  std::vector<DiscoveryResult> reference;
  std::vector<QuerySpec> specs = MakeSpecs(saved.world);
  for (const QuerySpec& spec : specs) {
    auto result = unlimited.Discover(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference.push_back(std::move(*result));
  }

  const uint64_t total = TotalCellBytes(unlimited);
  const uint64_t budget = total / 4;
  ASSERT_GT(budget, 0u);
  Session governed = OpenGoverned(saved, budget);
  // Two passes over the same stream: neither may parse a cell, so there is
  // nothing for an idle point to evict.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < specs.size(); ++q) {
      auto result = governed.Discover(specs[q]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectBitIdentical(reference[q], *result);
      EXPECT_EQ(governed.corpus().tables_resident(), 0u);
    }
  }
  const ResidencyStats res = governed.corpus_residency();
  EXPECT_EQ(res.budget_bytes, budget);
  EXPECT_EQ(res.resident_bytes, 0u);
  EXPECT_EQ(res.bytes_materialized, 0u);
  EXPECT_EQ(res.evictions, 0u);
  EXPECT_EQ(unlimited.corpus_residency().bytes_materialized, 0u);
  RemoveWorld(saved);
}

TEST(SessionBudgetTest, QueryStreamsLeaveTheLazyCorpusCold) {
  for (const size_t key_size : {size_t{1}, size_t{2}}) {
    SavedWorld saved = SaveWorld("cold" + std::to_string(key_size), key_size);
    const std::vector<QuerySpec> specs = MakeSpecs(saved.world);
    Session probe = OpenGoverned(saved, /*budget_bytes=*/0);
    const uint64_t quarter = TotalCellBytes(probe) / 4;
    for (const uint64_t budget : {uint64_t{0}, quarter}) {
      SCOPED_TRACE("key_size=" + std::to_string(key_size) +
                   " budget=" + std::to_string(budget));
      Session session = OpenGoverned(saved, budget);
      for (const QuerySpec& spec : specs) {
        ASSERT_TRUE(session.Discover(spec).ok());
      }
      EXPECT_EQ(session.corpus().tables_resident(), 0u);
      ASSERT_TRUE(session.DiscoverBatch(specs).ok());
      EXPECT_EQ(session.corpus().tables_resident(), 0u);
      ASSERT_TRUE(session.WaitUntilReady().ok());
      McrSearch mcr(&session.corpus(), &session.index());
      for (const QuerySpec& spec : specs) {
        (void)mcr.Discover(*spec.table, spec.key_columns, spec.options);
      }
      EXPECT_EQ(session.corpus().tables_resident(), 0u);
      EXPECT_EQ(session.corpus_residency().bytes_materialized, 0u);
    }
    RemoveWorld(saved);
  }
}

TEST(SessionBudgetTest, SaveShedsBackToTheBudget) {
  // Save is the work that still materializes every cell; the budget brings
  // residency back under it afterwards.
  SavedWorld saved = SaveWorld("save", /*key_size=*/2);
  Session probe = OpenGoverned(saved, /*budget_bytes=*/0);
  const uint64_t budget = TotalCellBytes(probe) / 4;
  Session governed = OpenGoverned(saved, budget);
  const std::string corpus_copy = saved.corpus_path + ".copy";
  const std::string index_copy = saved.index_path + ".copy";
  ASSERT_TRUE(governed.Save(corpus_copy, index_copy).ok());
  const ResidencyStats res = governed.corpus_residency();
  EXPECT_EQ(res.bytes_materialized, TotalCellBytes(governed));
  EXPECT_LE(res.resident_bytes, budget);
  EXPECT_GT(res.evictions, 0u);
  std::remove(corpus_copy.c_str());
  std::remove(index_copy.c_str());
  RemoveWorld(saved);
}

}  // namespace
}  // namespace mate
