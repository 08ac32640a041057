// MATE's online discovery phase (Algorithm 1, §6): initialization (init
// column, by default the key column that fetches the fewest PL items, +
// query super keys), table filtering (two pruning rules), super-key
// row filtering, and exact joinability calculation, maintaining a top-k
// heap of candidate tables. The phases themselves live in
// core/query_executor.{h,cpp}; MateSearch::Discover is the serial
// (one-shard, no-pool) execution of that same code path, and the sharded
// intra-query executor is guaranteed bit-identical to it.
//
// The same engine also powers the SCR baseline: with
// DiscoveryOptions::use_row_filter = false every fetched row goes straight
// to exact verification (§7.1.1's "SCR ... cannot utilize the super key").

#ifndef MATE_CORE_MATE_H_
#define MATE_CORE_MATE_H_

#include <vector>

#include "core/init_column.h"
#include "core/joinability.h"
#include "core/topk.h"
#include "index/inverted_index.h"
#include "storage/corpus.h"

namespace mate {

struct DiscoveryOptions {
  /// Number of joinable tables to return.
  int k = 10;

  /// The key column Algorithm 1 fetches (§6.1). The default takes the one
  /// whose values fetch the fewest PL items, from the probes every query
  /// makes; kMinCardinality is the paper's heuristic. Top-k never
  /// changes; the work counters do, so benches that report the paper's
  /// §7 numbers select kMinCardinality.
  InitColumnStrategy init_strategy = InitColumnStrategy::kBestCase;

  /// Super-key row filtering (§6.3). Disabled -> the SCR baseline.
  bool use_row_filter = true;

  /// Table-filter rules 1 and 2 (§6.2).
  bool use_table_filters = true;

  /// A presence semi-join ahead of the row loop, beyond the paper: a combo
  /// can only match in a table that posts its rarest value, so a posting
  /// run none of whose combos passes that test is skipped
  /// (DiscoveryStats::rows_skipped), and a table with fewer such combos
  /// than the current j_k is pruned with rule 1. Runs only with the row
  /// filter on, so SCR keeps the paper's algorithm. Top-k never changes;
  /// the work and precision counters do, so benches that measure the
  /// paper's filter precision turn it off.
  bool use_semi_join = true;

  /// Tables to exclude from results (used by examples that query a table
  /// already present in the corpus against itself).
  std::vector<TableId> exclude_tables;

  /// When non-empty, only these tables are considered at all — the JOSIE
  /// adaptations evaluate exactly their candidate table set this way.
  std::vector<TableId> restrict_tables;
};

class MateSearch {
 public:
  /// Both `corpus` and `index` must outlive the searcher; the index must
  /// have been built over `corpus`.
  MateSearch(const Corpus* corpus, const InvertedIndex* index)
      : corpus_(corpus), index_(index) {}

  /// Finds the top-k tables joinable with `query` on `key_columns`
  /// (Algorithm 1). Returns results sorted by joinability desc, table id
  /// asc; tables with joinability 0 are never reported.
  DiscoveryResult Discover(const Table& query,
                           const std::vector<ColumnId>& key_columns,
                           const DiscoveryOptions& options) const;

 private:
  const Corpus* corpus_;
  const InvertedIndex* index_;
};

}  // namespace mate

#endif  // MATE_CORE_MATE_H_
