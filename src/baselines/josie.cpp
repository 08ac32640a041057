#include "baselines/josie.h"

#include <algorithm>
#include <unordered_set>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace mate {

JosieIndex JosieIndex::Build(const Corpus& corpus) {
  JosieIndex index;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    const Table& table = corpus.table(t);
    for (ColumnId c = 0; c < table.NumColumns(); ++c) {
      std::unordered_set<std::string> distinct;
      for (RowId r = 0; r < table.NumRows(); ++r) {
        if (table.IsRowDeleted(r)) continue;
        std::string norm = NormalizeValue(table.cell(r, c));
        if (!norm.empty()) distinct.insert(std::move(norm));
      }
      if (distinct.empty()) continue;
      uint32_t set_id = static_cast<uint32_t>(index.sets_.size());
      index.sets_.push_back(
          {t, c, static_cast<uint32_t>(distinct.size())});
      for (const std::string& value : distinct) {
        ValueId id = index.dictionary_.GetOrAdd(value);
        index.postings_[id].push_back(set_id);
      }
    }
  }
  return index;
}

std::vector<JosieIndex::ScoredSet> JosieIndex::TopSets(
    const std::vector<std::string>& tokens, size_t n) const {
  // Distinct-token semantics: each query token counts once per set.
  std::unordered_set<std::string_view> distinct(tokens.begin(), tokens.end());
  std::unordered_map<uint32_t, int64_t> overlap;
  for (std::string_view token : distinct) {
    ValueId id = dictionary_.Find(token);
    if (id == kInvalidValueId) continue;
    auto it = postings_.find(id);
    if (it == postings_.end()) continue;
    for (uint32_t set_id : it->second) ++overlap[set_id];
  }
  std::vector<ScoredSet> scored;
  scored.reserve(overlap.size());
  for (const auto& [set_id, count] : overlap) scored.push_back({set_id, count});
  std::sort(scored.begin(), scored.end(),
            [](const ScoredSet& a, const ScoredSet& b) {
              if (a.overlap != b.overlap) return a.overlap > b.overlap;
              return a.set_id < b.set_id;
            });
  if (scored.size() > n) scored.resize(n);
  return scored;
}

std::vector<TableId> JosieIndex::TopTables(
    const std::vector<std::string>& tokens, size_t n) const {
  std::vector<TableId> tables;
  std::unordered_set<TableId> seen;
  // Over-fetch sets: several top sets may belong to one table.
  for (const ScoredSet& s : TopSets(tokens, n * 4)) {
    TableId t = sets_[s.set_id].table_id;
    if (seen.insert(t).second) {
      tables.push_back(t);
      if (tables.size() >= n) break;
    }
  }
  return tables;
}

size_t JosieIndex::MemoryBytes() const {
  size_t bytes = sets_.size() * sizeof(SetRef) + dictionary_.MemoryBytes();
  for (const auto& [id, list] : postings_) {
    (void)id;
    bytes += list.size() * sizeof(uint32_t) + sizeof(ValueId) +
             2 * sizeof(void*);
  }
  return bytes;
}

namespace {

// Distinct normalized values of one query key column (JOSIE probe tokens).
std::vector<std::string> ColumnTokens(const Table& query, ColumnId c) {
  std::unordered_set<std::string> distinct;
  for (RowId r = 0; r < query.NumRows(); ++r) {
    if (query.IsRowDeleted(r)) continue;
    std::string norm = NormalizeValue(query.cell(r, c));
    if (!norm.empty()) distinct.insert(std::move(norm));
  }
  return {distinct.begin(), distinct.end()};
}

// Exact evaluation of a fixed table shortlist through the SCR machinery.
DiscoveryResult EvaluateShortlist(const Corpus* corpus,
                                  const InvertedIndex* index,
                                  const Table& query,
                                  const std::vector<ColumnId>& key_columns,
                                  std::vector<TableId> shortlist, int k) {
  MateSearch engine(corpus, index);
  DiscoveryOptions options;
  options.k = k;
  options.use_row_filter = false;  // JOSIE variants verify exactly
  options.use_table_filters = true;
  options.restrict_tables = std::move(shortlist);
  return engine.Discover(query, key_columns, options);
}

}  // namespace

DiscoveryResult ScrJosieSearch::Discover(
    const Table& query, const std::vector<ColumnId>& key_columns,
    const JosieOptions& options) const {
  Stopwatch timer;
  DiscoveryResult result;
  if (key_columns.empty() || options.k <= 0) {
    result.stats.runtime_seconds = timer.ElapsedSeconds();
    return result;
  }
  // JOSIE probe on the init column.
  const size_t init_pos = SelectInitColumn(
      query, key_columns, InternKeyCombos(query, key_columns),
      InitColumnStrategy::kMinCardinality, nullptr);
  std::vector<std::string> tokens =
      ColumnTokens(query, key_columns[init_pos]);
  std::vector<TableId> shortlist = josie_->TopTables(
      tokens, options.overfetch * static_cast<size_t>(options.k));
  if (shortlist.empty()) {
    result.stats.runtime_seconds = timer.ElapsedSeconds();
    return result;
  }
  result = EvaluateShortlist(corpus_, index_, query, key_columns,
                             std::move(shortlist), options.k);
  result.stats.runtime_seconds = timer.ElapsedSeconds();
  return result;
}

DiscoveryResult McrJosieSearch::Discover(
    const Table& query, const std::vector<ColumnId>& key_columns,
    const JosieOptions& options) const {
  Stopwatch timer;
  DiscoveryResult result;
  if (key_columns.empty() || options.k <= 0) {
    result.stats.runtime_seconds = timer.ElapsedSeconds();
    return result;
  }
  // One JOSIE probe per key column; intersect the table shortlists
  // ("evaluating the tables that appear in all joinable results", §7.1.1).
  const size_t n = options.overfetch * static_cast<size_t>(options.k);
  std::unordered_map<TableId, size_t> hits;
  for (ColumnId c : key_columns) {
    for (TableId t : josie_->TopTables(ColumnTokens(query, c), n)) {
      ++hits[t];
    }
  }
  std::vector<TableId> shortlist;
  for (const auto& [t, count] : hits) {
    if (count == key_columns.size()) shortlist.push_back(t);
  }
  std::sort(shortlist.begin(), shortlist.end());
  if (shortlist.empty()) {
    result.stats.runtime_seconds = timer.ElapsedSeconds();
    return result;
  }
  result = EvaluateShortlist(corpus_, index_, query, key_columns,
                             std::move(shortlist), options.k);
  result.stats.runtime_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace mate
