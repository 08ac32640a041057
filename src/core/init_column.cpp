#include "core/init_column.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "util/string_util.h"

namespace mate {

std::string_view InitColumnStrategyName(InitColumnStrategy strategy) {
  switch (strategy) {
    case InitColumnStrategy::kMinCardinality: return "Cardinality";
    case InitColumnStrategy::kColumnOrder: return "ColumnOrder";
    case InitColumnStrategy::kLongestString: return "TLS";
    case InitColumnStrategy::kWorstCase: return "Worst";
    case InitColumnStrategy::kBestCase: return "Best";
  }
  return "?";
}

uint64_t CountPlItemsForColumn(const Table& query, ColumnId c,
                               const InvertedIndex& index) {
  std::unordered_set<std::string> distinct;
  for (RowId r = 0; r < query.NumRows(); ++r) {
    if (query.IsRowDeleted(r)) continue;
    distinct.insert(NormalizeValue(query.cell(r, c)));
  }
  uint64_t total = 0;
  for (const std::string& value : distinct) {
    if (value.empty()) continue;
    total += index.Lookup(value).size();
  }
  return total;
}

uint64_t CountPostingListsForColumn(const Table& query, ColumnId c,
                                    const InvertedIndex& index) {
  std::unordered_set<std::string> distinct;
  for (RowId r = 0; r < query.NumRows(); ++r) {
    if (query.IsRowDeleted(r)) continue;
    distinct.insert(NormalizeValue(query.cell(r, c)));
  }
  uint64_t lists = 0;
  for (const std::string& value : distinct) {
    if (value.empty()) continue;
    if (!index.Lookup(value).empty()) ++lists;
  }
  return lists;
}

size_t SelectInitColumn(const Table& query,
                        const std::vector<ColumnId>& key_columns,
                        const KeyCombos& combos, InitColumnStrategy strategy,
                        const InvertedIndex* index) {
  assert(!key_columns.empty());
  assert(combos.cardinality.size() == key_columns.size());
  switch (strategy) {
    case InitColumnStrategy::kColumnOrder:
      return 0;
    case InitColumnStrategy::kMinCardinality: {
      const std::vector<size_t>& card = combos.cardinality;
      return static_cast<size_t>(std::min_element(card.begin(), card.end()) -
                                 card.begin());
    }
    case InitColumnStrategy::kLongestString: {
      size_t best = 0;
      size_t best_len = 0;
      for (size_t i = 0; i < key_columns.size(); ++i) {
        size_t longest = 0;
        for (RowId r = 0; r < query.NumRows(); ++r) {
          if (query.IsRowDeleted(r)) continue;
          longest = std::max(longest,
                             Trim(query.cell(r, key_columns[i])).size());
        }
        if (longest > best_len) {
          best = i;
          best_len = longest;
        }
      }
      return best;
    }
    case InitColumnStrategy::kWorstCase:
    case InitColumnStrategy::kBestCase: {
      assert(index != nullptr);
      size_t best = 0;
      uint64_t best_count =
          CountPlItemsForColumn(query, key_columns[0], *index);
      for (size_t i = 1; i < key_columns.size(); ++i) {
        uint64_t count = CountPlItemsForColumn(query, key_columns[i], *index);
        bool better = strategy == InitColumnStrategy::kWorstCase
                          ? count > best_count
                          : count < best_count;
        if (better) {
          best = i;
          best_count = count;
        }
      }
      return best;
    }
  }
  return 0;
}

}  // namespace mate
