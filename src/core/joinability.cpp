#include "core/joinability.h"

#include <algorithm>

#include "util/string_util.h"

namespace mate {

namespace {
constexpr char kComboSep = '\x1F';

std::string JoinCombo(const std::vector<std::string>& combo) {
  std::string key;
  for (const std::string& v : combo) {
    key.append(v);
    key.push_back(kComboSep);
  }
  return key;
}
}  // namespace

std::vector<std::vector<std::string>> ExtractKeyCombos(
    const Table& query, const std::vector<ColumnId>& key_columns) {
  std::vector<std::vector<std::string>> combos;
  std::unordered_set<std::string> seen;
  for (RowId r = 0; r < query.NumRows(); ++r) {
    if (query.IsRowDeleted(r)) continue;
    std::vector<std::string> combo;
    combo.reserve(key_columns.size());
    bool has_empty = false;
    for (ColumnId c : key_columns) {
      combo.push_back(NormalizeValue(query.cell(r, c)));
      if (combo.back().empty()) has_empty = true;
    }
    if (has_empty) continue;
    if (seen.insert(JoinCombo(combo)).second) {
      combos.push_back(std::move(combo));
    }
  }
  return combos;
}

void MappingAccumulator::AddMatch(const std::vector<ColumnId>& mapping,
                                  uint32_t combo_id) {
  matches_[mapping].insert(combo_id);
}

int64_t MappingAccumulator::MaxJoinability() const {
  int64_t best = 0;
  for (const auto& [mapping, combos] : matches_) {
    best = std::max(best, static_cast<int64_t>(combos.size()));
  }
  return best;
}

std::vector<ColumnId> MappingAccumulator::BestMapping() const {
  std::vector<ColumnId> best;
  int64_t best_count = 0;
  for (const auto& [mapping, combos] : matches_) {
    int64_t count = static_cast<int64_t>(combos.size());
    if (count > best_count ||
        (count == best_count && (best.empty() || mapping < best))) {
      best_count = count;
      best = mapping;
    }
  }
  return best;
}

bool VerifyComboInRow(const Table& table, RowId row,
                      const std::vector<std::string>& combo,
                      uint32_t combo_id, ColumnId fixed_column,
                      size_t fixed_position, MappingAccumulator* acc,
                      uint64_t* value_comparisons, VerifyScratch* scratch) {
  const size_t m = combo.size();
  const size_t n = table.NumColumns();
  if (m > n) return false;

  // Columns matching each combo position.
  std::vector<std::vector<ColumnId>>& candidates = scratch->candidates;
  if (candidates.size() < m) candidates.resize(m);
  for (size_t i = 0; i < m; ++i) candidates[i].clear();
  for (size_t i = 0; i < m; ++i) {
    if (fixed_column != kInvalidColumnId && i == fixed_position) {
      ++*value_comparisons;
      if (!NormalizedEquals(combo[i], table.cell(row, fixed_column))) {
        return false;
      }
      candidates[i].push_back(fixed_column);
      continue;
    }
    for (ColumnId c = 0; c < n; ++c) {
      if (fixed_column != kInvalidColumnId && c == fixed_column) continue;
      ++*value_comparisons;
      if (NormalizedEquals(combo[i], table.cell(row, c))) {
        candidates[i].push_back(c);
      }
    }
    if (candidates[i].empty()) return false;
  }

  // Enumerate distinct-column assignments (smallest candidate sets first to
  // fail fast), emitting each complete assignment as a mapping.
  std::vector<size_t>& order = scratch->order;
  order.resize(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return candidates[a].size() < candidates[b].size();
  });

  std::vector<ColumnId>& mapping = scratch->mapping;
  mapping.assign(m, kInvalidColumnId);
  std::vector<char>& used = scratch->used;
  used.assign(n, 0);
  int emitted = 0;
  bool any = false;

  auto backtrack = [&](auto&& self, size_t depth) -> void {
    if (emitted >= kMaxMappingsPerRowCombo) return;
    if (depth == m) {
      acc->AddMatch(mapping, combo_id);
      ++emitted;
      any = true;
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
      if (emitted >= kMaxMappingsPerRowCombo) return;
    }
  };
  backtrack(backtrack, 0);
  return any;
}

namespace {

void EnumerateMappings(const Table& candidate, size_t m,
                       std::vector<ColumnId>* mapping,
                       std::vector<char>* used,
                       const std::unordered_set<std::string>& query_combos,
                       BruteForceResult* result) {
  const size_t n = candidate.NumColumns();
  if (mapping->size() == m) {
    std::unordered_set<std::string> matched;
    std::string key;
    for (RowId r = 0; r < candidate.NumRows(); ++r) {
      if (candidate.IsRowDeleted(r)) continue;
      key.clear();
      bool has_empty = false;
      for (ColumnId c : *mapping) {
        std::string norm = NormalizeValue(candidate.cell(r, c));
        if (norm.empty()) has_empty = true;
        key.append(norm);
        key.push_back(kComboSep);
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
    EnumerateMappings(candidate, m, mapping, used, query_combos, result);
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
    query_combos.insert(JoinCombo(combo));
  }
  if (query_combos.empty()) return result;

  std::vector<ColumnId> mapping;
  std::vector<char> used(candidate.NumColumns(), 0);
  EnumerateMappings(candidate, m, &mapping, &used, query_combos, &result);
  return result;
}

}  // namespace mate
