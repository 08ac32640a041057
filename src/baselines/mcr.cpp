#include "baselines/mcr.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/stopwatch.h"

namespace mate {

namespace {

uint64_t RowKey(TableId t, RowId r) {
  return (static_cast<uint64_t>(t) << 32) | r;
}

}  // namespace

DiscoveryResult McrSearch::Discover(const Table& query,
                                    const std::vector<ColumnId>& key_columns,
                                    const DiscoveryOptions& options) const {
  Stopwatch timer;
  DiscoveryResult result;
  DiscoveryStats& stats = result.stats;
  const size_t m = key_columns.size();
  if (m == 0 || m > 32 || options.k <= 0) {
    stats.runtime_seconds = timer.ElapsedSeconds();
    return result;
  }

  const std::vector<std::vector<std::string>> combos =
      ExtractKeyCombos(query, key_columns);
  const std::vector<ComboPostings> combo_lists =
      ResolveComboPostings(*index_, combos);

  // First key value -> combo ids starting with it; a row can only match
  // the combos whose first value it holds. Distinct values per key
  // position, for the per-column PL fetches.
  std::unordered_map<std::string_view, std::vector<uint32_t>> combos_of_first;
  std::vector<std::unordered_map<std::string_view, PostingSpan>> values_at(m);
  for (uint32_t combo_id = 0; combo_id < combos.size(); ++combo_id) {
    combos_of_first[combos[combo_id][0]].push_back(combo_id);
    for (size_t i = 0; i < m; ++i) {
      values_at[i].emplace(combos[combo_id][i], combo_lists[combo_id][i]);
    }
  }

  // Per-column retrieval: accumulate which key positions hit each row.
  std::unordered_set<TableId> excluded(options.exclude_tables.begin(),
                                       options.exclude_tables.end());
  const uint32_t full_mask =
      m == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << m) - 1);
  std::unordered_map<uint64_t, uint32_t> row_masks;
  for (size_t i = 0; i < m; ++i) {
    for (const auto& [v, pl] : values_at[i]) {
      stats.pl_items_fetched += pl.size();
      for (const PostingEntry& entry : pl) {
        if (excluded.count(entry.table_id)) continue;
        row_masks[RowKey(entry.table_id, entry.row_id)] |= uint32_t{1} << i;
      }
    }
  }

  // Intersection: rows hit by every key column, grouped per table, each
  // bound to the combos whose first value it holds (one pass over the
  // first position's already fetched lists).
  std::unordered_map<uint64_t, std::vector<uint32_t>> bound;
  for (const auto& [v, pl] : values_at[0]) {
    if (pl.empty()) continue;
    const std::vector<uint32_t>& ids = combos_of_first.at(v);
    for (const PostingEntry& entry : pl) {
      const uint64_t key = RowKey(entry.table_id, entry.row_id);
      auto it = row_masks.find(key);
      if (it == row_masks.end() || it->second != full_mask) continue;
      std::vector<uint32_t>& list = bound[key];
      list.insert(list.end(), ids.begin(), ids.end());
    }
  }
  std::unordered_map<TableId, std::vector<RowId>> candidate_rows;
  for (const auto& [key, mask] : row_masks) {
    if (mask == full_mask) {
      candidate_rows[static_cast<TableId>(key >> 32)].push_back(
          static_cast<RowId>(key & 0xFFFFFFFFu));
    }
  }
  stats.candidate_tables = candidate_rows.size();

  // Deterministic evaluation order.
  std::vector<TableId> tables;
  tables.reserve(candidate_rows.size());
  for (const auto& [t, rows] : candidate_rows) tables.push_back(t);
  std::sort(tables.begin(), tables.end());

  TopKHeap<TableId> topk(static_cast<size_t>(options.k));
  std::unordered_map<TableId, std::vector<ColumnId>> best_mappings;
  MappingAccumulator acc;
  VerifyScratch scratch;

  for (TableId t : tables) {
    ++stats.tables_evaluated;
    std::vector<RowId>& rows = candidate_rows[t];
    std::sort(rows.begin(), rows.end());
    acc.Clear();
    for (RowId r : rows) {
      ++stats.rows_checked;
      ++stats.rows_sent_to_verification;
      std::vector<uint32_t>& combo_ids = bound[RowKey(t, r)];
      std::sort(combo_ids.begin(), combo_ids.end());
      combo_ids.erase(std::unique(combo_ids.begin(), combo_ids.end()),
                      combo_ids.end());

      bool row_matched = false;
      for (uint32_t combo_id : combo_ids) {
        if (VerifyComboInRow(combo_lists[combo_id], t, r, combo_id,
                             /*fixed=*/nullptr, 0, &acc,
                             &stats.value_comparisons, &scratch)) {
          row_matched = true;
        }
      }
      if (row_matched) ++stats.rows_true_positive;
    }
    if (acc.recounted()) ++stats.tables_recounted;
    const int64_t j = acc.MaxJoinability();
    if (j > 0 && topk.Add(t, j)) best_mappings[t] = acc.BestMapping();
  }

  result.top_k = FinalizeTopK(topk, best_mappings);
  stats.runtime_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace mate
