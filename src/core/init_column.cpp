#include "core/init_column.h"

#include <algorithm>
#include <cassert>

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

std::vector<uint64_t> PlItemsPerPosition(
    const KeyCombos& combos, const std::vector<PostingSpan>& lists) {
  std::vector<uint64_t> items(combos.width, 0);
  // counted[v] is one past the last position whose sum holds value v.
  std::vector<uint32_t> counted(combos.values.size(), 0);
  for (size_t i = 0; i < combos.width; ++i) {
    for (size_t c = 0; c < combos.size(); ++c) {
      const uint32_t id = combos.combo(c)[i];
      if (counted[id] != i + 1) {
        counted[id] = static_cast<uint32_t>(i + 1);
        items[i] += lists[id].size();
      }
    }
  }
  return items;
}

size_t SelectInitColumn(const Table& query,
                        const std::vector<ColumnId>& key_columns,
                        const KeyCombos& combos, InitColumnStrategy strategy,
                        const std::vector<uint64_t>* pl_items) {
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
      assert(pl_items != nullptr && pl_items->size() == key_columns.size());
      const std::vector<uint64_t>& items = *pl_items;
      const auto pick = strategy == InitColumnStrategy::kBestCase
                            ? std::min_element(items.begin(), items.end())
                            : std::max_element(items.begin(), items.end());
      return static_cast<size_t>(pick - items.begin());
    }
  }
  return 0;
}

}  // namespace mate
