// Differential coverage of the hot-path kernel layer (util/simd.h): every
// dispatched level must compute bit-identical results to the always-compiled
// scalar reference — kernel by kernel over randomized word arrays, through
// BitVector's routed operations across widths 64-512 (random tails
// included), and end to end through Session::Discover across shard x thread
// shapes. On hosts without x86 SIMD the dispatched table degrades to the
// scalar one and the comparisons become (trivially passing) self-checks, so
// the suite runs everywhere, sanitizers included.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/session.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace mate {
namespace {

using simd::KernelLevel;
using simd::KernelTable;

// Restores the dispatch state a test found: the process is only ever in
// "pinned scalar" or "best detected" state, and ActiveLevel() tells which.
class ScopedDispatch {
 public:
  ScopedDispatch() : was_scalar_(simd::ActiveLevel() == KernelLevel::kScalar) {}
  ~ScopedDispatch() { simd::ForceScalar(was_scalar_); }

 private:
  bool was_scalar_;
};

std::vector<uint64_t> RandomWords(Rng* rng, size_t n, int style) {
  std::vector<uint64_t> words(n);
  for (size_t w = 0; w < n; ++w) {
    switch (style) {
      case 0:  // dense random
        words[w] = rng->NextUint64();
        break;
      case 1:  // sparse (super-key-like)
        words[w] = rng->NextUint64() & rng->NextUint64() & rng->NextUint64();
        break;
      case 2:  // all ones
        words[w] = ~uint64_t{0};
        break;
      default:  // all zeros
        words[w] = 0;
        break;
    }
  }
  return words;
}

// The pairs the containment kernels care about: (query, row) where row
// sometimes covers the query (row = query | noise) and sometimes misses by
// a single bit — the XASH length-segment short-circuit case.
struct ProbePair {
  std::vector<uint64_t> query;
  std::vector<uint64_t> row;
};

ProbePair RandomProbePair(Rng* rng, size_t n) {
  ProbePair pair;
  pair.query = RandomWords(rng, n, 1);
  pair.row = RandomWords(rng, n, rng->Uniform(4));
  if (rng->Uniform(2) == 0) {
    // Covering row: row |= query, then maybe knock one query bit out.
    for (size_t w = 0; w < n; ++w) pair.row[w] |= pair.query[w];
    if (rng->Uniform(2) == 0 && n > 0) {
      const size_t w = rng->Uniform(n);
      const uint64_t bit = uint64_t{1} << rng->Uniform(64);
      pair.query[w] |= bit;
      pair.row[w] &= ~bit;
    }
  }
  return pair;
}

std::vector<const KernelTable*> TablesUnderTest() {
  return {&simd::TableForLevel(KernelLevel::kSse2),
          &simd::TableForLevel(KernelLevel::kAvx2), &simd::Kernels()};
}

TEST(SimdKernelTest, ScalarTableIsScalar) {
  EXPECT_EQ(simd::ScalarKernels().level, KernelLevel::kScalar);
  EXPECT_STREQ(simd::ScalarKernels().name, "scalar");
  EXPECT_STREQ(simd::LevelName(KernelLevel::kAvx2), "avx2");
}

TEST(SimdKernelTest, ForceScalarPinsAndReleases) {
  ScopedDispatch restore;
  simd::ForceScalar(true);
  EXPECT_EQ(simd::ActiveLevel(), KernelLevel::kScalar);
  simd::ForceScalar(false);
  EXPECT_EQ(simd::ActiveLevel(), simd::DetectLevel());
}

TEST(SimdKernelTest, ContainmentKernelsMatchScalar) {
  const KernelTable& scalar = simd::ScalarKernels();
  Rng rng(101);
  for (const KernelTable* table : TablesUnderTest()) {
    for (int trial = 0; trial < 2000; ++trial) {
      const size_t n = rng.Uniform(9);  // 0..8 words
      const ProbePair pair = RandomProbePair(&rng, n);
      const bool expected =
          scalar.covers(pair.query.data(), pair.row.data(), n);
      EXPECT_EQ(table->covers(pair.query.data(), pair.row.data(), n),
                expected)
          << table->name << " n=" << n;
      EXPECT_EQ(table->and_not_any(pair.query.data(), pair.row.data(), n),
                !expected)
          << table->name << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, SweepKernelsMatchScalar) {
  const KernelTable& scalar = simd::ScalarKernels();
  Rng rng(303);
  for (const KernelTable* table : TablesUnderTest()) {
    for (int trial = 0; trial < 1000; ++trial) {
      const size_t n = rng.Uniform(9);
      const std::vector<uint64_t> a = RandomWords(&rng, n, rng.Uniform(4));
      const std::vector<uint64_t> b = RandomWords(&rng, n, rng.Uniform(4));

      std::vector<uint64_t> or_ref = a, or_got = a;
      scalar.or_words(or_ref.data(), b.data(), n);
      table->or_words(or_got.data(), b.data(), n);
      EXPECT_EQ(or_got, or_ref) << table->name << " or n=" << n;

      std::vector<uint64_t> and_ref = a, and_got = a;
      scalar.and_words(and_ref.data(), b.data(), n);
      table->and_words(and_got.data(), b.data(), n);
      EXPECT_EQ(and_got, and_ref) << table->name << " and n=" << n;

      EXPECT_EQ(table->popcount(a.data(), n), scalar.popcount(a.data(), n))
          << table->name << " popcount n=" << n;
      EXPECT_EQ(table->is_zero(a.data(), n), scalar.is_zero(a.data(), n))
          << table->name << " is_zero n=" << n;
    }
  }
}

// BitVector routes through the dispatched kernels; under forced-scalar and
// dispatched modes every operation must agree with a naive bit loop, across
// widths with and without ragged tails.
TEST(SimdBitVectorTest, RoutedOpsMatchNaiveAtEveryWidth) {
  ScopedDispatch restore;
  Rng rng(404);
  for (size_t bits :
       {64u, 100u, 128u, 130u, 192u, 256u, 320u, 448u, 511u, 512u}) {
    for (int trial = 0; trial < 40; ++trial) {
      BitVector a(bits), b(bits);
      for (size_t i = 0; i < bits; ++i) {
        if (rng.Uniform(3) == 0) a.SetBit(i);
        if (rng.Uniform(2) == 0) b.SetBit(i);
      }
      if (trial == 0) {  // edge masks: all-zero a, all-one b
        a.Clear();
        for (size_t i = 0; i < bits; ++i) b.SetBit(i);
      }
      bool naive_subset = true;
      size_t naive_ones = 0;
      bool naive_zero = true;
      for (size_t i = 0; i < bits; ++i) {
        if (a.TestBit(i) && !b.TestBit(i)) naive_subset = false;
        if (a.TestBit(i)) ++naive_ones;
        if (a.TestBit(i)) naive_zero = false;
      }
      for (bool force_scalar : {false, true}) {
        simd::ForceScalar(force_scalar);
        EXPECT_EQ(a.IsSubsetOf(b), naive_subset) << bits;
        EXPECT_EQ(a.CountOnes(), naive_ones) << bits;
        EXPECT_EQ(a.IsZero(), naive_zero) << bits;
        BitVector or_result = a;
        or_result.OrWith(b);
        BitVector and_result = a;
        and_result.AndWith(b);
        for (size_t i = 0; i < bits; ++i) {
          ASSERT_EQ(or_result.TestBit(i), a.TestBit(i) || b.TestBit(i))
              << bits << " bit " << i;
          ASSERT_EQ(and_result.TestBit(i), a.TestBit(i) && b.TestBit(i))
              << bits << " bit " << i;
        }
      }
    }
  }
}

// ---- query-level bit-identity matrix ----------------------------------
// Scalar vs dispatched kernels through the full Session::Discover pipeline,
// across shards {1, 8} x threads {1, 4}: top-k and every work counter must
// be bit-identical — the kernels only change speed, never the answer.

Table MakeMatrixQuery() {
  Table q("q");
  q.AddColumn("first");
  q.AddColumn("second");
  for (int i = 0; i < 10; ++i) {
    (void)q.AppendRow({"k" + std::to_string(i), "v" + std::to_string(i)});
  }
  return q;
}

Corpus MakeMatrixCorpus() {
  Corpus corpus;
  for (size_t t = 0; t < 40; ++t) {
    Table table("t" + std::to_string(t));
    table.AddColumn("a");
    table.AddColumn("b");
    table.AddColumn("c");
    const size_t joinability = 1 + (t % 5);
    for (size_t i = 0; i < joinability; ++i) {
      (void)table.AppendRow({"k" + std::to_string(i), "v" + std::to_string(i),
                             "pad" + std::to_string(t)});
    }
    (void)table.AppendRow({"k0", "v9", "noise"});
    (void)table.AppendRow({"own" + std::to_string(t), "z", "noise"});
    corpus.AddTable(std::move(table));
  }
  return corpus;
}

Session OpenMatrixSession(bool force_scalar, unsigned threads) {
  SessionOptions options;
  options.corpus = MakeMatrixCorpus();
  options.build_index = true;
  options.num_threads = threads;
  options.cache_bytes = 0;  // every run must recompute
  options.force_scalar_kernels = force_scalar;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

void ExpectIdentical(const DiscoveryResult& a, const DiscoveryResult& b,
                     const std::string& label) {
  ASSERT_EQ(a.top_k.size(), b.top_k.size()) << label;
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    EXPECT_EQ(a.top_k[i].table_id, b.top_k[i].table_id) << label;
    EXPECT_EQ(a.top_k[i].joinability, b.top_k[i].joinability) << label;
    EXPECT_EQ(a.top_k[i].best_mapping, b.top_k[i].best_mapping) << label;
  }
  EXPECT_EQ(a.stats.pl_items_fetched, b.stats.pl_items_fetched) << label;
  EXPECT_EQ(a.stats.candidate_tables, b.stats.candidate_tables) << label;
  EXPECT_EQ(a.stats.tables_evaluated, b.stats.tables_evaluated) << label;
  EXPECT_EQ(a.stats.tables_pruned_rule1, b.stats.tables_pruned_rule1)
      << label;
  EXPECT_EQ(a.stats.tables_pruned_rule2, b.stats.tables_pruned_rule2)
      << label;
  EXPECT_EQ(a.stats.rows_checked, b.stats.rows_checked) << label;
  EXPECT_EQ(a.stats.rows_sent_to_verification,
            b.stats.rows_sent_to_verification)
      << label;
  EXPECT_EQ(a.stats.rows_true_positive, b.stats.rows_true_positive) << label;
  EXPECT_EQ(a.stats.value_comparisons, b.stats.value_comparisons) << label;
}

TEST(SimdDiscoverTest, ScalarAndSimdAreBitIdenticalAcrossShapes) {
  ScopedDispatch restore;
  const Table query = MakeMatrixQuery();
  for (unsigned threads : {1u, 4u}) {
    for (size_t shards : {size_t{1}, size_t{8}}) {
      QuerySpec spec;
      spec.table = &query;
      spec.key_columns = {0, 1};
      spec.options.k = 7;
      spec.intra_query_threads = threads;
      spec.intra_query_shards = shards;

      Session scalar_session =
          OpenMatrixSession(/*force_scalar=*/true, threads);
      auto scalar_result = scalar_session.Discover(spec);
      ASSERT_TRUE(scalar_result.ok()) << scalar_result.status().ToString();
      ASSERT_EQ(simd::ActiveLevel(), KernelLevel::kScalar);

      simd::ForceScalar(false);  // dispatched (SIMD where the host has it)
      Session simd_session =
          OpenMatrixSession(/*force_scalar=*/false, threads);
      auto simd_result = simd_session.Discover(spec);
      ASSERT_TRUE(simd_result.ok()) << simd_result.status().ToString();

      ExpectIdentical(*scalar_result, *simd_result,
                      "shards=" + std::to_string(shards) +
                          " threads=" + std::to_string(threads) + " level=" +
                          simd::LevelName(simd::ActiveLevel()));
    }
  }
}

// The row filter off forces the no-probe walk; on exercises the batched
// probe path. Both must agree between scalar and dispatched kernels.
TEST(SimdDiscoverTest, RowFilterOnAndOffAgreeAcrossLevels) {
  ScopedDispatch restore;
  const Table query = MakeMatrixQuery();
  for (bool use_row_filter : {true, false}) {
    QuerySpec spec;
    spec.table = &query;
    spec.key_columns = {0, 1};
    spec.options.k = 5;
    spec.options.use_row_filter = use_row_filter;

    simd::ForceScalar(true);
    Session scalar_session = OpenMatrixSession(/*force_scalar=*/true, 1);
    auto scalar_result = scalar_session.Discover(spec);
    ASSERT_TRUE(scalar_result.ok());

    simd::ForceScalar(false);
    Session simd_session = OpenMatrixSession(/*force_scalar=*/false, 1);
    auto simd_result = simd_session.Discover(spec);
    ASSERT_TRUE(simd_result.ok());

    ExpectIdentical(*scalar_result, *simd_result,
                    std::string("row_filter=") +
                        (use_row_filter ? "on" : "off"));
  }
}

}  // namespace
}  // namespace mate
