// Phased Session::Open (async cold start): a lazily opened session must be
// observationally identical to an eagerly opened one. Discover issued
// immediately after Open returns races the warmup latch on purpose — it
// must block on readiness and return results bit-identical to eager load
// across threads {1,4} and shards {1,8} (the index streams on a dedicated
// loader thread at every pool width; TSan guards the latch discipline).
// Lazy sessions here are lazy on BOTH axes: the index streams behind the
// readiness latch while the corpus stays cold — queries verify from the
// posting lists and parse no cells. Also covers:
// DiscoverBatch racing the latch, Save draining the load, move/destroy
// while the index streams, the eager_load / eager_corpus escape hatches,
// header-served corpus stats, zero query-time residency, older corpus
// versions failing both Open paths, and cell-blob corruption surfacing
// from the query paths.

#include "core/session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "storage/corpus_io.h"
#include "util/rng.h"
#include "workload/query_gen.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

// Deterministic planted-join world (same recipe as session_test.cpp).
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

struct SavedWorld {
  World world;
  std::string corpus_path;
  std::string index_path;
};

// Builds the world's index once and persists the pair for path-based opens.
SavedWorld SaveWorld(const std::string& tag) {
  SavedWorld saved;
  saved.world = MakeWorld();
  saved.corpus_path = testing::TempDir() + "/mate_async_" + tag + ".corpus";
  saved.index_path = testing::TempDir() + "/mate_async_" + tag + ".index";
  SessionOptions build;
  build.corpus = MakeWorld().corpus;  // identical bytes to saved.world
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

Session OpenPaths(const std::string& corpus_path,
                  const std::string& index_path, unsigned num_threads,
                  bool eager) {
  SessionOptions options;
  options.corpus_path = corpus_path;
  options.index_path = index_path;
  options.num_threads = num_threads;
  options.cache_bytes = 0;  // every query pays full cost: real races only
  // `eager` means eager on both axes: blocking index load AND fully
  // materialized corpus — the pre-lazy reference behavior.
  options.eager_load = eager;
  options.eager_corpus = eager;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

Session OpenSaved(const SavedWorld& saved, unsigned num_threads,
                  bool eager) {
  return OpenPaths(saved.corpus_path, saved.index_path, num_threads, eager);
}

std::vector<QuerySpec> MakeSpecs(const World& world, unsigned threads,
                                 size_t shards) {
  std::vector<QuerySpec> specs;
  for (const QueryCase& qc : world.queries) {
    QuerySpec spec;
    spec.table = &qc.query;
    spec.key_columns = qc.key_columns;
    spec.options.k = 5;
    spec.intra_query_threads = threads;
    spec.intra_query_shards = shards;
    specs.push_back(std::move(spec));
  }
  return specs;
}

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

// ---- the core property ---------------------------------------------

TEST(SessionOpenAsyncTest, LazyMatchesEagerAcrossThreadsAndShards) {
  SavedWorld saved = SaveWorld("property");
  for (unsigned threads : {1u, 4u}) {
    for (size_t shards : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      // Eager reference at the same execution knobs (the knobs change work
      // counters, so the reference must share them for a full bit-compare).
      Session eager = OpenSaved(saved, threads, /*eager=*/true);
      EXPECT_TRUE(eager.index_ready());
      const std::vector<QuerySpec> specs =
          MakeSpecs(saved.world, threads, shards);
      std::vector<DiscoveryResult> reference;
      for (const QuerySpec& spec : specs) {
        auto result = eager.Discover(spec);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        reference.push_back(std::move(*result));
      }

      // Lazy session: the first Discover races the warmup latch.
      Session lazy = OpenSaved(saved, threads, /*eager=*/false);
      for (size_t q = 0; q < specs.size(); ++q) {
        auto result = lazy.Discover(specs[q]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectBitIdentical(reference[q], *result);
      }
      EXPECT_TRUE(lazy.index_ready());
      EXPECT_TRUE(lazy.WaitUntilReady().ok());
    }
  }
  RemoveWorld(saved);
}

TEST(SessionOpenAsyncTest, BatchIssuedImmediatelyAfterOpenMatchesEager) {
  SavedWorld saved = SaveWorld("batch");
  const std::vector<QuerySpec> specs = MakeSpecs(saved.world, 1, 0);

  Session eager = OpenSaved(saved, /*num_threads=*/4, /*eager=*/true);
  auto reference = eager.DiscoverBatch(specs);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Session lazy = OpenSaved(saved, /*num_threads=*/4, /*eager=*/false);
  auto raced = lazy.DiscoverBatch(specs);  // races the loader thread
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  ASSERT_EQ(reference->results.size(), raced->results.size());
  for (size_t q = 0; q < reference->results.size(); ++q) {
    ExpectBitIdentical(reference->results[q], raced->results[q]);
  }
  RemoveWorld(saved);
}

// ---- lifecycle around the latch ------------------------------------

TEST(SessionOpenAsyncTest, WaitUntilReadyIsIdempotentAndSettles) {
  SavedWorld saved = SaveWorld("settle");
  Session lazy = OpenSaved(saved, /*num_threads=*/1, /*eager=*/false);
  EXPECT_TRUE(lazy.WaitUntilReady().ok());
  EXPECT_TRUE(lazy.index_ready());
  EXPECT_TRUE(lazy.WaitUntilReady().ok());  // second wait returns instantly
  RemoveWorld(saved);
}

TEST(SessionOpenAsyncTest, SaveImmediatelyAfterPhasedOpenRoundTrips) {
  SavedWorld saved = SaveWorld("resave");
  const std::string corpus_copy = testing::TempDir() + "/mate_async_c2.corpus";
  const std::string index_copy = testing::TempDir() + "/mate_async_c2.index";
  {
    Session lazy = OpenSaved(saved, /*num_threads=*/4, /*eager=*/false);
    // Save must drain the load — a half-streamed index must never hit disk.
    ASSERT_TRUE(lazy.Save(corpus_copy, index_copy).ok());
  }
  Session reopened =
      OpenPaths(corpus_copy, index_copy, /*num_threads=*/1, /*eager=*/true);
  Session original = OpenSaved(saved, /*num_threads=*/1, /*eager=*/true);
  for (const QuerySpec& spec : MakeSpecs(saved.world, 1, 0)) {
    auto a = original.Discover(spec);
    auto b = reopened.Discover(spec);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectBitIdentical(*a, *b);
  }
  std::remove(corpus_copy.c_str());
  std::remove(index_copy.c_str());
  RemoveWorld(saved);
}

TEST(SessionOpenAsyncTest, MoveWhileWarmingStaysSafe) {
  SavedWorld saved = SaveWorld("move");
  const std::vector<QuerySpec> specs = MakeSpecs(saved.world, 1, 0);
  Session reference = OpenSaved(saved, /*num_threads=*/1, /*eager=*/true);
  for (unsigned threads : {1u, 4u}) {
    Session lazy = OpenSaved(saved, threads, /*eager=*/false);
    Session moved = std::move(lazy);  // latch state survives the move
    Session target = OpenSaved(saved, threads, /*eager=*/false);
    target = std::move(moved);  // move-assign quiesces the old load
    auto result = target.Discover(specs[0]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto expected = reference.Discover(specs[0]);
    ASSERT_TRUE(expected.ok());
    ExpectBitIdentical(*expected, *result);
  }
  RemoveWorld(saved);
}

TEST(SessionOpenAsyncTest, DestroyWhileWarmingIsClean) {
  SavedWorld saved = SaveWorld("destroy");
  // Never queried: the destructor alone must quiesce the loader (ASan/TSan
  // turn a lifetime bug here into a hard failure).
  for (unsigned threads : {1u, 4u}) {
    for (int round = 0; round < 3; ++round) {
      Session lazy = OpenSaved(saved, threads, /*eager=*/false);
    }
  }
  RemoveWorld(saved);
}

TEST(SessionOpenAsyncTest, CorpusOnlySessionIsAlwaysReady) {
  SessionOptions options;
  options.corpus = MakeWorld().corpus;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->index_ready());
  EXPECT_TRUE(session->WaitUntilReady().ok());
}

TEST(SessionOpenAsyncTest, EagerLoadEscapeHatchIsReadyAtOpenReturn) {
  SavedWorld saved = SaveWorld("eager");
  Session eager = OpenSaved(saved, /*num_threads=*/4, /*eager=*/true);
  EXPECT_TRUE(eager.index_ready());  // no latch, no background work
  EXPECT_TRUE(eager.WaitUntilReady().ok());
  EXPECT_GT(eager.index().NumPostingEntries(), 0u);
  // eager_corpus: every cell resident before Open returned.
  EXPECT_TRUE(eager.corpus_resident());
  EXPECT_TRUE(eager.WaitCorpusResident().ok());
  RemoveWorld(saved);
}

// ---- corpus-side laziness ------------------------------------------

// A table stuffed with values no generated query ever probes: no query
// reads it.
Table MakeColdTable(size_t rows) {
  Table cold("zz_cold");
  for (int c = 0; c < 4; ++c) cold.AddColumn("cc" + std::to_string(c));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    for (int c = 0; c < 4; ++c) {
      cells.push_back("zzcold" + std::to_string(r % 13) + "_" +
                      std::to_string(c));
    }
    (void)cold.AppendRow(std::move(cells));
  }
  return cold;
}

// World + cold table, built and persisted once.
struct ColdWorld {
  SavedWorld saved;
  TableId cold_id = 0;
};

ColdWorld SaveColdWorld(const std::string& tag) {
  ColdWorld cold;
  cold.saved.world = MakeWorld();
  Corpus corpus = MakeWorld().corpus;  // identical bytes to saved.world
  cold.cold_id = corpus.AddTable(MakeColdTable(64));
  (void)cold.saved.world.corpus.AddTable(MakeColdTable(64));
  cold.saved.corpus_path =
      testing::TempDir() + "/mate_async_" + tag + ".corpus";
  cold.saved.index_path = testing::TempDir() + "/mate_async_" + tag + ".index";
  SessionOptions build;
  build.corpus = std::move(corpus);
  build.build_index = true;
  auto session = Session::Open(std::move(build));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(
      session->Save(cold.saved.corpus_path, cold.saved.index_path).ok());
  return cold;
}

TEST(SessionOpenAsyncTest, QueriesLeaveUntouchedTablesCold) {
  ColdWorld cold = SaveColdWorld("cold");
  Session reference = OpenSaved(cold.saved, /*num_threads=*/1, /*eager=*/true);
  Session lazy = OpenSaved(cold.saved, /*num_threads=*/4, /*eager=*/false);
  EXPECT_EQ(lazy.corpus().tables_resident(), 0u);
  for (const QuerySpec& spec : MakeSpecs(cold.saved.world, 1, 0)) {
    auto result = lazy.Discover(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto expected = reference.Discover(spec);
    ASSERT_TRUE(expected.ok());
    ExpectBitIdentical(*expected, *result);
  }
  // Queries verify from the posting lists: no table materialized, the
  // candidates included.
  EXPECT_EQ(lazy.corpus().tables_resident(), 0u);
  EXPECT_FALSE(lazy.corpus().table_resident(cold.cold_id));
  EXPECT_FALSE(lazy.corpus_resident());
  // Draining residency afterwards changes no answers.
  EXPECT_TRUE(lazy.WaitCorpusResident().ok());
  EXPECT_TRUE(lazy.corpus().table_resident(cold.cold_id));
  RemoveWorld(cold.saved);
}

TEST(SessionOpenAsyncTest, WaitCorpusResidentDrainsTheWarmer) {
  SavedWorld saved = SaveWorld("drain");
  Session lazy = OpenSaved(saved, /*num_threads=*/4, /*eager=*/false);
  EXPECT_TRUE(lazy.WaitCorpusResident().ok());
  EXPECT_TRUE(lazy.corpus_resident());
  EXPECT_TRUE(CorporaEqual(saved.world.corpus, lazy.corpus()));
  // Idempotent once drained.
  EXPECT_TRUE(lazy.WaitCorpusResident().ok());
  RemoveWorld(saved);
}

TEST(SessionOpenAsyncTest, CorpusStatsComeFromTheHeaderWithoutAScan) {
  SavedWorld saved = SaveWorld("stats");
  const CorpusStats expected = saved.world.corpus.ComputeStats();
  // Corpus-only session (no index to supply stats): any stats scan would
  // have to materialize tables, so zero residency proves the snapshot came
  // from the corpus header.
  SessionOptions options;
  options.corpus_path = saved.corpus_path;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->corpus().tables_resident(), 0u);
  EXPECT_TRUE(session->corpus_stats() == expected);
  RemoveWorld(saved);
}

TEST(SessionOpenAsyncTest, OlderCorpusVersionsFailBothOpenPaths) {
  SavedWorld saved = SaveWorld("version");
  auto bytes = ReadFileToString(saved.corpus_path);
  ASSERT_TRUE(bytes.ok());
  // Stamp the retired v1/v2 (and an unknown) version over a real image:
  // the lazy default and eager_corpus both refuse it at Open, naming the
  // version, the header section and the byte offset.
  for (const int version : {1, 2, 9}) {
    std::string stamped = *bytes;
    stamped[8] = static_cast<char>(version);  // fixed32 LE low byte
    ASSERT_TRUE(WriteFileAtomic(saved.corpus_path, stamped).ok());
    const std::string expected =
        "unsupported version " + std::to_string(version) + " (expected 3)";
    for (const bool eager : {false, true}) {
      SCOPED_TRACE(expected + (eager ? ", eager" : ", lazy"));
      SessionOptions options;
      options.corpus_path = saved.corpus_path;
      options.index_path = saved.index_path;
      options.eager_corpus = eager;
      auto session = Session::Open(std::move(options));
      ASSERT_FALSE(session.ok());
      EXPECT_TRUE(session.status().IsCorruption());
      const std::string& message = session.status().message();
      EXPECT_NE(message.find(expected), std::string::npos) << message;
      EXPECT_NE(message.find("header section, byte offset"), std::string::npos)
          << message;
    }
  }
  RemoveWorld(saved);
}

TEST(SessionOpenAsyncTest, CellBlobCorruptionSurfacesFromQueryPaths) {
  SavedWorld saved = SaveWorld("corrupt");
  auto bytes = ReadFileToString(saved.corpus_path);
  ASSERT_TRUE(bytes.ok());
  // Find a byte flip near the end of the image (inside the cell region)
  // that leaves the header — and thus the lazy open + shape validation —
  // intact but breaks a cell blob's parse.
  std::string corrupt;
  const std::string probe_path = saved.corpus_path + ".probe";
  for (size_t back = 1; back <= 256 && corrupt.empty(); ++back) {
    std::string mutated = *bytes;
    const size_t offset = mutated.size() - back;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x80);
    ASSERT_TRUE(WriteFileAtomic(probe_path, mutated).ok());
    auto probe = OpenCorpusLazy(probe_path);
    std::remove(probe_path.c_str());
    ASSERT_TRUE(probe.ok()) << "a cell-region flip must not break the "
                               "header: " << probe.status().ToString();
    if (probe->MaterializeAll().ok()) continue;  // content-only flip
    corrupt = std::move(mutated);
  }
  ASSERT_FALSE(corrupt.empty()) << "no flip broke a cell blob";
  ASSERT_TRUE(WriteFileAtomic(saved.corpus_path, corrupt).ok());

  SessionOptions options;
  options.corpus_path = saved.corpus_path;
  options.index_path = saved.index_path;
  options.cache_bytes = 0;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Deterministic surfacing: drain residency, then query.
  Status resident = session->WaitCorpusResident();
  EXPECT_FALSE(resident.ok());
  EXPECT_TRUE(resident.IsCorruption());
  EXPECT_NE(resident.message().find("byte offset"), std::string::npos);
  const std::vector<QuerySpec> specs = MakeSpecs(saved.world, 1, 0);
  auto result = session->Discover(specs[0]);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
  auto batch = session->DiscoverBatch(specs);
  EXPECT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsCorruption());
  // Save must refuse to persist stub tables.
  EXPECT_FALSE(
      session->Save(saved.corpus_path + ".out", saved.index_path + ".out")
          .ok());
  RemoveWorld(saved);
}

}  // namespace
}  // namespace mate