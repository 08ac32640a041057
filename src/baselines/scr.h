// SCR — Single-Column Retrieval (§7.1.1): the strongest non-super-key
// baseline. It runs the full Algorithm 1 machinery (the init-column
// choice of DiscoveryOptions::init_strategy, both table-filter rules) but
// cannot filter rows with super keys, so every fetched candidate row is
// verified by exact value comparison.

#ifndef MATE_BASELINES_SCR_H_
#define MATE_BASELINES_SCR_H_

#include "core/mate.h"

namespace mate {

class ScrSearch {
 public:
  ScrSearch(const Corpus* corpus, const InvertedIndex* index)
      : engine_(corpus, index) {}

  /// Top-k discovery without super-key row filtering. `options.use_row_filter`
  /// is ignored (forced off).
  DiscoveryResult Discover(const Table& query,
                           const std::vector<ColumnId>& key_columns,
                           DiscoveryOptions options) const {
    options.use_row_filter = false;
    return engine_.Discover(query, key_columns, options);
  }

 private:
  MateSearch engine_;
};

}  // namespace mate

#endif  // MATE_BASELINES_SCR_H_
