#include "core/joinability.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "index/inverted_index.h"
#include "util/coding.h"
#include "util/string_util.h"

namespace mate {

namespace {

// Appends one value to a combo's set key. The length prefix keeps the key
// injective: a normalized value may hold any byte.
void AppendComboValue(std::string_view value, std::string* key) {
  PutVarint64(key, value.size());
  key->append(value);
}

}  // namespace

KeyCombos InternKeyCombos(const Table& query,
                          const std::vector<ColumnId>& key_columns) {
  KeyCombos out;
  const size_t m = key_columns.size();
  out.width = m;
  out.cardinality.assign(m, 0);
  if (m == 0) return out;

  // A row's combo is appended to out.value_ids first and taken back when
  // its value ids, as bytes, are already interned here.
  ValueDictionary distinct_combos;
  // seen[v * m + i]: value v occurred in key column i.
  std::vector<char> seen;
  // Sized once for the most a query can hold: a distinct combo per row
  // and a distinct value per key cell.
  const size_t rows = query.NumRows();
  out.values.Reserve(rows * m);
  out.value_ids.reserve(rows * m);
  distinct_combos.Reserve(rows);
  seen.reserve(rows * m * m);
  std::string buffer;
  for (RowId r = 0; r < rows; ++r) {
    if (query.IsRowDeleted(r)) continue;
    bool has_empty = false;
    for (size_t i = 0; i < m; ++i) {
      const std::string_view cell =
          NormalizedView(query.cell(r, key_columns[i]), &buffer);
      has_empty = has_empty || cell.empty();
      const auto id = static_cast<uint32_t>(out.values.GetOrAdd(cell));
      if (id * m == seen.size()) seen.resize(seen.size() + m, 0);
      if (!seen[id * m + i]) {
        seen[id * m + i] = 1;
        ++out.cardinality[i];
      }
      out.value_ids.push_back(id);
    }
    const size_t combo = out.value_ids.size() / m - 1;
    const std::string_view key(
        reinterpret_cast<const char*>(&out.value_ids[combo * m]),
        m * sizeof(uint32_t));
    if (has_empty || distinct_combos.GetOrAdd(key) != combo) {
      out.value_ids.resize(combo * m);
    }
  }
  return out;
}

std::vector<PostingSpan> ProbeKeyValues(const KeyCombos& combos,
                                        const InvertedIndex& index) {
  std::vector<PostingSpan> lists(combos.values.size());
  for (uint32_t v = 0; v < lists.size(); ++v) {
    lists[v] = index.Lookup(combos.values.ValueOf(v));
  }
  return lists;
}

std::vector<std::vector<std::string>> ExtractKeyCombos(
    const Table& query, const std::vector<ColumnId>& key_columns) {
  const KeyCombos interned = InternKeyCombos(query, key_columns);
  std::vector<std::vector<std::string>> combos(interned.size());
  for (size_t c = 0; c < combos.size(); ++c) {
    const uint32_t* ids = interned.combo(c);
    for (size_t i = 0; i < interned.width; ++i) {
      combos[c].emplace_back(interned.values.ValueOf(ids[i]));
    }
  }
  return combos;
}

std::vector<ComboPostings> ResolveComboPostings(
    const InvertedIndex& index,
    const std::vector<std::vector<std::string>>& combos) {
  std::vector<ComboPostings> lists(combos.size());
  for (size_t combo_id = 0; combo_id < combos.size(); ++combo_id) {
    lists[combo_id].reserve(combos[combo_id].size());
    for (const std::string& value : combos[combo_id]) {
      lists[combo_id].push_back(index.Lookup(value));
    }
  }
  return lists;
}

namespace {

// Appends to `out` the columns of row (table, row) that hold `list`'s
// value, in ascending order, leaving out `skip`. Postings sort by (table,
// row, column), so they are one contiguous run.
void AppendRowColumns(PostingSpan list, TableId table, RowId row,
                      ColumnId skip, std::vector<ColumnId>* out) {
  auto it = std::lower_bound(
      list.begin(), list.end(), std::pair<TableId, RowId>(table, row),
      [](const PostingEntry& e, const std::pair<TableId, RowId>& key) {
        return e.table_id != key.first ? e.table_id < key.first
                                       : e.row_id < key.second;
      });
  for (; it != list.end() && it->table_id == table && it->row_id == row;
       ++it) {
    if (it->column_id != skip) out->push_back(it->column_id);
  }
}

// Candidate columns of every combo position of one (row, combo) pair into
// candidates[0, m): the fixed position holds just fixed->column_id (when
// the binding holds), every other position the row's columns holding its
// value except that column. Returns false as soon as a position has none.
bool CollectCandidates(const ComboPostings& lists, TableId table, RowId row,
                       const PostingEntry* fixed, size_t fixed_position,
                       std::vector<std::vector<ColumnId>>* candidates,
                       uint64_t* probes) {
  const size_t m = lists.size();
  if (candidates->size() < m) candidates->resize(m);
  const ColumnId fixed_column =
      fixed != nullptr ? fixed->column_id : kInvalidColumnId;
  for (size_t i = 0; i < m; ++i) {
    std::vector<ColumnId>& columns = (*candidates)[i];
    columns.clear();
    if (lists[i].empty()) return false;
    ++*probes;
    if (fixed != nullptr && i == fixed_position) {
      // std::less orders pointers into different arrays too.
      const std::less<const PostingEntry*> before;
      if (before(fixed, lists[i].begin()) || !before(fixed, lists[i].end()) ||
          fixed->table_id != table || fixed->row_id != row) {
        return false;
      }
      columns.push_back(fixed_column);
      continue;
    }
    AppendRowColumns(lists[i], table, row, fixed_column, &columns);
    if (columns.empty()) return false;
  }
  return true;
}

}  // namespace

void MappingAccumulator::AddMatch(const std::vector<ColumnId>& mapping,
                                  uint32_t combo_id) {
  const size_t width = mapping.size() + 1;
  if (records_.size() >= width &&
      std::equal(mapping.begin(), mapping.end(), records_.end() - width) &&
      records_.back() == combo_id) {
    return;
  }
  record_width_ = width;
  records_.insert(records_.end(), mapping.begin(), mapping.end());
  records_.push_back(combo_id);
  settled_ = false;
}

int64_t MappingAccumulator::MaxJoinability() const {
  return Settled().joinability;
}

std::vector<ColumnId> MappingAccumulator::BestMapping() const {
  return Settled().best_mapping;
}

const BruteForceResult& MappingAccumulator::Settled() const {
  if (settled_) return best_;
  settled_ = true;
  if (capped_) {
    best_ = Recount();
    return best_;
  }
  best_.joinability = 0;
  best_.best_mapping.clear();
  // One pass over the records with two open-addressed tables of record
  // indexes: one keyed by the whole record drops repeats, one keyed by the
  // mapping finds the mapping's first record, whose count of distinct
  // combos the pass keeps. A mapping takes the lead on a higher count, or
  // on an equal one when it is lexicographically smaller.
  const size_t w = record_width_;
  const ColumnId* const records = records_.data();
  const size_t n = w == 0 ? 0 : records_.size() / w;
  size_t capacity = 16;
  int shift = 60;  // a hash's top log2(capacity) bits are its home slot
  while (capacity < 2 * n) {
    capacity *= 2;
    --shift;
  }
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  pair_slots_.assign(capacity, kNone);
  mapping_slots_.assign(capacity, kNone);
  counts_.assign(n, 0);
  const auto slot_of = [records, w, capacity, shift](
                           std::vector<uint32_t>* slots, uint32_t r,
                           size_t len) -> uint32_t& {
    const ColumnId* record = records + r * w;
    uint64_t h = 0;
    for (size_t e = 0; e < len; ++e) {
      h = (h ^ record[e]) * 0x9E3779B97F4A7C15ULL;
    }
    for (size_t i = h >> shift;; i = (i + 1) & (capacity - 1)) {
      uint32_t& slot = (*slots)[i];
      if (slot == kNone ||
          std::equal(record, record + len, records + slot * w)) {
        return slot;
      }
    }
  };
  for (uint32_t r = 0; r < n; ++r) {
    uint32_t& pair = slot_of(&pair_slots_, r, w);
    if (pair != kNone) continue;
    pair = r;
    uint32_t& first = slot_of(&mapping_slots_, r, w - 1);
    if (first == kNone) first = r;
    const int64_t count = ++counts_[first];
    const ColumnId* mapping = records + first * w;
    if (count > best_.joinability ||
        (count == best_.joinability &&
         std::lexicographical_compare(mapping, mapping + w - 1,
                                      best_.best_mapping.begin(),
                                      best_.best_mapping.end()))) {
      best_.joinability = count;
      best_.best_mapping.assign(mapping, mapping + w - 1);
    }
  }
  return best_;
}

BruteForceResult MappingAccumulator::Recount() const {
  BruteForceResult best;
  if (verified_.empty()) return best;
  const size_t m = verified_.front().lists->size();

  // Every matched pair's candidate columns, flattened: pair p's set for
  // position i is columns[bounds[p * m + i], bounds[p * m + i + 1]).
  // Pairs are ordered by combo id, so the distinct combos of any subset
  // in that order are its combo-id changes.
  std::vector<size_t> by_combo(verified_.size());
  for (size_t p = 0; p < by_combo.size(); ++p) by_combo[p] = p;
  std::stable_sort(by_combo.begin(), by_combo.end(),
                   [this](size_t a, size_t b) {
                     return verified_[a].combo_id < verified_[b].combo_id;
                   });
  std::vector<ColumnId> columns;
  std::vector<size_t> bounds;
  std::vector<uint32_t> combo_of;
  std::vector<std::vector<ColumnId>> candidates;
  uint64_t probes = 0;
  for (size_t p : by_combo) {
    const VerifiedPair& pair = verified_[p];
    (void)CollectCandidates(*pair.lists, pair.table, pair.row, pair.fixed,
                            pair.fixed_position, &candidates, &probes);
    for (size_t i = 0; i < m; ++i) {
      bounds.push_back(columns.size());
      columns.insert(columns.end(), candidates[i].begin(),
                     candidates[i].end());
    }
    combo_of.push_back(pair.combo_id);
  }
  bounds.push_back(columns.size());
  const auto holds = [&](size_t pair, size_t position, ColumnId c) {
    const auto begin = columns.begin() + bounds[pair * m + position];
    const auto end = columns.begin() + bounds[pair * m + position + 1];
    return std::binary_search(begin, end, c);
  };
  const auto distinct_combos = [&](const std::vector<size_t>& pairs) {
    int64_t count = 0;
    for (size_t k = 0; k < pairs.size(); ++k) {
      if (k == 0 || combo_of[pairs[k]] != combo_of[pairs[k - 1]]) ++count;
    }
    return count;
  };

  // Depth-first over mappings in lexicographic order, binding position
  // `depth` to each column some surviving pair can put there. A mapping
  // only replaces the best on a strictly higher count, so ties keep the
  // lexicographically smallest mapping, as BestMapping does; a branch
  // whose surviving pairs cannot beat the best is skipped.
  std::vector<ColumnId> mapping(m, kInvalidColumnId);
  std::vector<size_t> all(combo_of.size());
  for (size_t p = 0; p < all.size(); ++p) all[p] = p;
  auto search = [&](auto&& self, size_t depth,
                    const std::vector<size_t>& alive) -> void {
    if (depth == m) {
      best.joinability = distinct_combos(alive);
      best.best_mapping = mapping;
      return;
    }
    std::vector<ColumnId> choices;
    for (size_t p : alive) {
      choices.insert(choices.end(), columns.begin() + bounds[p * m + depth],
                     columns.begin() + bounds[p * m + depth + 1]);
    }
    std::sort(choices.begin(), choices.end());
    choices.erase(std::unique(choices.begin(), choices.end()), choices.end());
    std::vector<size_t> next;
    for (ColumnId c : choices) {
      if (std::find(mapping.begin(), mapping.begin() + depth, c) !=
          mapping.begin() + depth) {
        continue;
      }
      next.clear();
      for (size_t p : alive) {
        if (holds(p, depth, c)) next.push_back(p);
      }
      if (distinct_combos(next) <= best.joinability) continue;
      mapping[depth] = c;
      self(self, depth + 1, next);
    }
    mapping[depth] = kInvalidColumnId;
  };
  search(search, 0, all);
  return best;
}

bool VerifyComboInRow(const ComboPostings& lists, TableId table, RowId row,
                      uint32_t combo_id, const PostingEntry* fixed,
                      size_t fixed_position, MappingAccumulator* acc,
                      uint64_t* probes, VerifyScratch* scratch) {
  const size_t m = lists.size();
  std::vector<std::vector<ColumnId>>& candidates = scratch->candidates;
  if (!CollectCandidates(lists, table, row, fixed, fixed_position,
                         &candidates, probes)) {
    return false;
  }

  // Enumerate distinct-column assignments (smallest candidate sets first to
  // fail fast), emitting each complete assignment as a mapping. Once the
  // accumulator recounts, one assignment settles the match.
  std::vector<size_t>& order = scratch->order;
  order.resize(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return candidates[a].size() < candidates[b].size();
  });

  ColumnId max_column = 0;
  for (size_t i = 0; i < m; ++i) {
    max_column = std::max(max_column, candidates[i].back());
  }
  std::vector<ColumnId>& mapping = scratch->mapping;
  mapping.assign(m, kInvalidColumnId);
  std::vector<char>& used = scratch->used;
  used.assign(static_cast<size_t>(max_column) + 1, 0);
  int emitted = 0;
  bool any = false;

  auto backtrack = [&](auto&& self, size_t depth) -> void {
    if (depth == m) {
      any = true;
      if (acc->capped_) return;
      if (emitted == kMaxMappingsPerRowCombo) {
        acc->capped_ = true;
        acc->records_.clear();
        return;
      }
      acc->AddMatch(mapping, combo_id);
      ++emitted;
      return;
    }
    size_t pos = order[depth];
    for (ColumnId c : candidates[pos]) {
      if (used[c]) continue;
      used[c] = 1;
      mapping[pos] = c;
      self(self, depth + 1);
      used[c] = 0;
      mapping[pos] = kInvalidColumnId;
      if (any && acc->capped_) return;
    }
  };
  backtrack(backtrack, 0);
  if (any) {
    acc->verified_.push_back(
        {&lists, table, row, combo_id, fixed, fixed_position});
    acc->settled_ = false;
  }
  return any;
}

namespace {

// `cells` holds the candidate's live rows, each normalized once, row by
// row: cells[i * n + c] is column c of the i-th live row.
void EnumerateMappings(const std::vector<std::string>& cells, size_t n,
                       size_t m, std::vector<ColumnId>* mapping,
                       std::vector<char>* used,
                       const std::unordered_set<std::string>& query_combos,
                       BruteForceResult* result) {
  if (mapping->size() == m) {
    std::unordered_set<std::string> matched;
    std::string key;
    for (size_t row = 0; row < cells.size(); row += n) {
      key.clear();
      bool has_empty = false;
      for (ColumnId c : *mapping) {
        const std::string& norm = cells[row + c];
        if (norm.empty()) has_empty = true;
        AppendComboValue(norm, &key);
      }
      if (has_empty) continue;
      if (query_combos.count(key)) matched.insert(key);
    }
    int64_t j = static_cast<int64_t>(matched.size());
    if (j > result->joinability ||
        (j == result->joinability && j > 0 &&
         (result->best_mapping.empty() || *mapping < result->best_mapping))) {
      result->joinability = j;
      result->best_mapping = *mapping;
    }
    return;
  }
  for (ColumnId c = 0; c < n; ++c) {
    if ((*used)[c]) continue;
    (*used)[c] = 1;
    mapping->push_back(c);
    EnumerateMappings(cells, n, m, mapping, used, query_combos, result);
    mapping->pop_back();
    (*used)[c] = 0;
  }
}

}  // namespace

BruteForceResult BruteForceJoinability(
    const Table& query, const std::vector<ColumnId>& key_columns,
    const Table& candidate) {
  BruteForceResult result;
  const size_t m = key_columns.size();
  if (m == 0 || m > candidate.NumColumns()) return result;

  std::unordered_set<std::string> query_combos;
  for (const auto& combo : ExtractKeyCombos(query, key_columns)) {
    std::string key;
    for (const std::string& value : combo) AppendComboValue(value, &key);
    query_combos.insert(std::move(key));
  }
  if (query_combos.empty()) return result;

  const size_t n = candidate.NumColumns();
  std::vector<std::string> cells;
  for (RowId r = 0; r < candidate.NumRows(); ++r) {
    if (candidate.IsRowDeleted(r)) continue;
    for (ColumnId c = 0; c < n; ++c) {
      cells.push_back(NormalizeValue(candidate.cell(r, c)));
    }
  }
  std::vector<ColumnId> mapping;
  std::vector<char> used(n, 0);
  EnumerateMappings(cells, n, m, &mapping, &used, query_combos, &result);
  return result;
}

}  // namespace mate
