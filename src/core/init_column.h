// Initial query-column selection (§6.1): MATE probes the single-column
// index with exactly one key column; the choice drives how many PL items are
// fetched. The default is the paper's minimum-cardinality heuristic; the
// other strategies exist for the §7.5.4 comparison.

#ifndef MATE_CORE_INIT_COLUMN_H_
#define MATE_CORE_INIT_COLUMN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/joinability.h"
#include "index/inverted_index.h"
#include "storage/table.h"

namespace mate {

enum class InitColumnStrategy {
  kMinCardinality,  // fewest distinct values (MATE's default heuristic)
  kColumnOrder,     // first key column as listed
  kLongestString,   // column containing the longest cell value ("TLS")
  kWorstCase,       // oracle: most PL items fetched (upper bound)
  kBestCase,        // oracle: fewest PL items fetched (ground truth "Best")
};

std::string_view InitColumnStrategyName(InitColumnStrategy strategy);

/// Total PL items the index returns for the distinct normalized values of
/// query column `c` — the §7.5.4 cost metric.
uint64_t CountPlItemsForColumn(const Table& query, ColumnId c,
                               const InvertedIndex& index);

/// Number of non-empty posting lists probed for column `c` (distinct values
/// present in the corpus) — the metric §7.5.4 reports as "PLs".
uint64_t CountPostingListsForColumn(const Table& query, ColumnId c,
                                    const InvertedIndex& index);

/// Picks the initial column among `key_columns` (position returned is the
/// *index into key_columns*, not the ColumnId). `combos` is
/// InternKeyCombos(query, key_columns): the minimum-cardinality rule reads
/// its per-column counts. The oracle strategies require `index`; the
/// heuristics ignore it. Ties break on the earlier key column for
/// determinism.
size_t SelectInitColumn(const Table& query,
                        const std::vector<ColumnId>& key_columns,
                        const KeyCombos& combos, InitColumnStrategy strategy,
                        const InvertedIndex* index);

}  // namespace mate

#endif  // MATE_CORE_INIT_COLUMN_H_
