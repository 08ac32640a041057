#include "core/topk.h"

#include <algorithm>
#include <sstream>

namespace mate {

void DiscoveryStats::Merge(const DiscoveryStats& other) {
  runtime_seconds += other.runtime_seconds;
  pl_items_fetched += other.pl_items_fetched;
  candidate_tables += other.candidate_tables;
  tables_evaluated += other.tables_evaluated;
  tables_pruned_rule1 += other.tables_pruned_rule1;
  tables_pruned_rule2 += other.tables_pruned_rule2;
  rows_checked += other.rows_checked;
  rows_skipped += other.rows_skipped;
  rows_sent_to_verification += other.rows_sent_to_verification;
  rows_true_positive += other.rows_true_positive;
  value_comparisons += other.value_comparisons;
  tables_recounted += other.tables_recounted;
  // Execution shape is not additive: merging per-shard or per-query stats
  // keeps the widest configuration seen.
  shards_used = std::max(shards_used, other.shards_used);
  fanout_threads = std::max(fanout_threads, other.fanout_threads);
}

std::string DiscoveryStats::ToString() const {
  std::ostringstream os;
  os << "runtime=" << runtime_seconds << "s pl_items=" << pl_items_fetched
     << " tables(cand/eval/p1/p2)=" << candidate_tables << "/"
     << tables_evaluated << "/" << tables_pruned_rule1 << "/"
     << tables_pruned_rule2 << " rows(checked/skipped/verify/tp)="
     << rows_checked << "/" << rows_skipped << "/"
     << rows_sent_to_verification << "/" << rows_true_positive
     << " cmp=" << value_comparisons << " precision=" << Precision();
  if (shards_used > 1 || fanout_threads > 1) {
    os << " shards=" << shards_used << " fanout=" << fanout_threads;
  }
  if (tables_recounted > 0) os << " recounted=" << tables_recounted;
  return os.str();
}

std::vector<TableResult> FinalizeTopK(
    const TopKHeap<TableId>& heap,
    const std::unordered_map<TableId, std::vector<ColumnId>>& best_mappings) {
  std::vector<TableResult> results;
  for (const auto& entry : heap.SortedDesc()) {
    TableResult result;
    result.table_id = entry.id;
    result.joinability = entry.score;
    auto it = best_mappings.find(entry.id);
    if (it != best_mappings.end()) result.best_mapping = it->second;
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace mate
