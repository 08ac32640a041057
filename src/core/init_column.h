// Initial query-column selection (§6.1): MATE probes the single-column
// index with exactly one key column; the choice drives how many PL items are
// fetched. The paper takes the column with the fewest distinct values,
// because finding the cheapest column costs an index probe per key value.
// Discovery probes every distinct key value anyway (the verifier reads
// their lists), so the default here is the cheapest column itself
// (kBestCase), ranked by PlItemsPerPosition at no extra probe. The other
// strategies stay selectable for the §7.5.4 comparison.

#ifndef MATE_CORE_INIT_COLUMN_H_
#define MATE_CORE_INIT_COLUMN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/joinability.h"
#include "index/posting.h"
#include "storage/table.h"

namespace mate {

enum class InitColumnStrategy {
  kMinCardinality,  // fewest distinct values (the paper's heuristic)
  kColumnOrder,     // first key column as listed
  kLongestString,   // column containing the longest cell value ("TLS")
  kWorstCase,       // most PL items fetched (upper bound)
  kBestCase,        // fewest PL items fetched (exact; the default)
};

std::string_view InitColumnStrategyName(InitColumnStrategy strategy);

/// The PL items each key position fetches as init column — the §7.5.4
/// cost metric. Entry i sums lists[v].size() over the distinct values v
/// that the combos hold at position i; `lists` is ProbeKeyValues(combos,
/// index). Discovery fetches exactly entry init_pos.
std::vector<uint64_t> PlItemsPerPosition(const KeyCombos& combos,
                                         const std::vector<PostingSpan>& lists);

/// Picks the initial column among `key_columns` (position returned is the
/// *index into key_columns*, not the ColumnId). `combos` is
/// InternKeyCombos(query, key_columns): the minimum-cardinality rule reads
/// its per-column counts. kBestCase and kWorstCase rank `pl_items`
/// (PlItemsPerPosition) and require it; the other rules ignore it. Ties
/// break on the earlier key column for determinism.
size_t SelectInitColumn(const Table& query,
                        const std::vector<ColumnId>& key_columns,
                        const KeyCombos& combos, InitColumnStrategy strategy,
                        const std::vector<uint64_t>* pl_items);

}  // namespace mate

#endif  // MATE_CORE_INIT_COLUMN_H_
