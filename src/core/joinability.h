// Joinability (§2): j(R,S) = max over size-|Q| column mappings Y' of
// |pi_Q(R) ∩ pi_Y'(S)| — set semantics over distinct key combinations.
//
// Two implementations live here:
//   * MappingAccumulator + VerifyComboInRow: the incremental, row-driven
//     verification MATE and the baselines share (Algorithm 1's calculateJ).
//   * BruteForceJoinability: the P(|T'|,|Q|)-mapping reference used as
//     ground truth in tests and as the "Ideal" oracle in benches.
//
// Everything here takes `const Table&` — already-materialized tables.
// Callers holding a lazy corpus resolve candidates through the accessor API
// (Corpus::table materializes on first touch; shape-only decisions use the
// table_* accessors) before handing tables down to these kernels.

#ifndef MATE_CORE_JOINABILITY_H_
#define MATE_CORE_JOINABILITY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/table.h"
#include "storage/types.h"

namespace mate {

/// Distinct normalized key combinations of the query's key columns, in
/// first-appearance order. Combos containing an empty value are dropped
/// (empty cells are not meaningful join keys).
std::vector<std::vector<std::string>> ExtractKeyCombos(
    const Table& query, const std::vector<ColumnId>& key_columns);

/// Aggregates verified (mapping, combo) matches and reports the mapping
/// with the most distinct matched combos — Equation 2's arg max.
class MappingAccumulator {
 public:
  /// Records that query combo `combo_id` matches under `mapping` (mapping[i]
  /// = the candidate column holding the i-th key value).
  void AddMatch(const std::vector<ColumnId>& mapping, uint32_t combo_id);

  /// Max distinct combos over any single mapping (0 if no matches).
  int64_t MaxJoinability() const;

  /// A best mapping (empty if no matches); ties resolve to the
  /// lexicographically smallest mapping for determinism.
  std::vector<ColumnId> BestMapping() const;

  void Clear() { matches_.clear(); }

 private:
  struct VectorHash {
    size_t operator()(const std::vector<ColumnId>& v) const {
      size_t h = 0x9E3779B97F4A7C15ULL;
      for (ColumnId c : v) h = (h ^ c) * 0x100000001B3ULL;
      return h;
    }
  };
  std::unordered_map<std::vector<ColumnId>, std::unordered_set<uint32_t>,
                     VectorHash>
      matches_;
};

/// Safety valve for pathological rows (many repeated values): at most this
/// many column assignments are enumerated per (row, combo) pair. Exceeding
/// it can only under-count joinability on adversarial inputs; realistic
/// rows bind each key value to very few columns.
inline constexpr int kMaxMappingsPerRowCombo = 128;

/// Working memory VerifyComboInRow reuses from call to call, owned by its
/// caller so the verification loop allocates nothing per (row, combo). Use
/// one per verifying thread; nothing in it carries meaning between calls.
struct VerifyScratch {
  std::vector<std::vector<ColumnId>> candidates;  // columns per combo value
  std::vector<size_t> order;                      // combo positions to bind
  std::vector<ColumnId> mapping;
  std::vector<char> used;  // per candidate column
};

/// Exact containment check of one combo in one candidate row. If every
/// combo value occurs in the row, records all feasible distinct-column
/// assignments in `acc` (those where column `fixed_column`, when not
/// kInvalidColumnId, is assigned to combo position `fixed_position`) and
/// returns true. `value_comparisons` is incremented per cell comparison.
bool VerifyComboInRow(const Table& table, RowId row,
                      const std::vector<std::string>& combo,
                      uint32_t combo_id, ColumnId fixed_column,
                      size_t fixed_position, MappingAccumulator* acc,
                      uint64_t* value_comparisons, VerifyScratch* scratch);

struct BruteForceResult {
  int64_t joinability = 0;
  std::vector<ColumnId> best_mapping;
};

/// Reference joinability: enumerates every ordered selection of |Q| distinct
/// candidate columns (Equation 3 mappings) and counts distinct matched
/// combos. Exponential in |Q|; intended for tests and small oracles.
BruteForceResult BruteForceJoinability(const Table& query,
                                       const std::vector<ColumnId>& key_columns,
                                       const Table& candidate);

}  // namespace mate

#endif  // MATE_CORE_JOINABILITY_H_
