// Joinability (§2): j(R,S) = max over size-|Q| column mappings Y' of
// |pi_Q(R) ∩ pi_Y'(S)| — set semantics over distinct key combinations.
//
// Two implementations live here, and they share no verification code:
//   * MappingAccumulator + VerifyComboInRow: the incremental, row-driven
//     verification MATE and the baselines run (Algorithm 1's calculateJ).
//     It reads no corpus cells. The index posts every normalized cell as a
//     (table, column, row) entry sorted by (table, row, column) (§5,
//     Eq. 4), so the columns of row r in table t that hold value v are
//     one equal_range of (t, r) on v's posting list, in ascending column
//     order. §5.4 maintenance keeps those lists current.
//   * BruteForceJoinability: the P(|T'|,|Q|)-mapping reference over
//     materialized cells, the ground truth in tests and the "Ideal" oracle
//     in benches.

#ifndef MATE_CORE_JOINABILITY_H_
#define MATE_CORE_JOINABILITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/posting.h"
#include "storage/table.h"
#include "storage/types.h"
#include "storage/value_dictionary.h"

namespace mate {

class InvertedIndex;

/// The distinct key combinations of a query over interned values. Each
/// live key cell is normalized and interned once: `values` holds every
/// distinct value of a live key cell once, in first-appearance order, the
/// empty value included, and combo c is the value ids
/// value_ids[c * width, (c + 1) * width). Combos are distinct and in
/// first-appearance order; rows with an empty key value are dropped (empty
/// cells are not meaningful join keys), and so are all rows when there are
/// no key columns. cardinality[i] counts the distinct values of key column
/// i over every live row, empty cells included: Table::ColumnCardinality,
/// taken from the same pass.
struct KeyCombos {
  size_t width = 0;
  ValueDictionary values;
  std::vector<uint32_t> value_ids;
  std::vector<size_t> cardinality;

  size_t size() const { return width == 0 ? 0 : value_ids.size() / width; }
  const uint32_t* combo(size_t c) const { return &value_ids[c * width]; }
};

KeyCombos InternKeyCombos(const Table& query,
                          const std::vector<ColumnId>& key_columns);

/// The posting list of every interned value: entry v is the index's list
/// for combos.values id v, empty when the index lacks it. One probe per
/// distinct key value; the lists point into `index` and stay valid until
/// it is edited.
std::vector<PostingSpan> ProbeKeyValues(const KeyCombos& combos,
                                        const InvertedIndex& index);

/// InternKeyCombos with each combo spelled out as its values.
std::vector<std::vector<std::string>> ExtractKeyCombos(
    const Table& query, const std::vector<ColumnId>& key_columns);

/// One combo's posting lists, position by position: entry i is the index's
/// list for the combo's i-th value, empty when the index lacks it.
using ComboPostings = std::vector<PostingSpan>;

/// The posting lists of every combo (entry combo_id), one index probe per
/// combo value. Lists point into `index` and stay valid until it is edited.
std::vector<ComboPostings> ResolveComboPostings(
    const InvertedIndex& index,
    const std::vector<std::vector<std::string>>& combos);

struct BruteForceResult {
  int64_t joinability = 0;
  std::vector<ColumnId> best_mapping;
};

/// At most this many column assignments are recorded per (row, combo)
/// pair. Realistic rows bind each key value to very few columns; a row
/// that repeats a key value across many columns can have P(n, |Q|). When a
/// pair would pass the cap, the accumulator stops recording mappings for
/// the table and recounts it exactly (MappingAccumulator::recounted), so
/// the cap bounds memory, never the answer.
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

/// Aggregates verified (mapping, combo) matches of one candidate table and
/// reports the mapping with the most distinct matched combos — Equation 2's
/// arg max. Matches are recorded back to back in one flat buffer, a record
/// equal to the previous one collapsing into it, and the best mapping is
/// settled once when first read after a change.
class MappingAccumulator {
 public:
  /// Records that query combo `combo_id` matches under `mapping` (mapping[i]
  /// = the candidate column holding the i-th key value). Every mapping
  /// recorded between two Clear()s has the same size.
  void AddMatch(const std::vector<ColumnId>& mapping, uint32_t combo_id);

  /// Max distinct combos over any single mapping (0 if no matches).
  int64_t MaxJoinability() const;

  /// A best mapping (empty if no matches); ties resolve to the
  /// lexicographically smallest mapping for determinism.
  std::vector<ColumnId> BestMapping() const;

  /// True once a (row, combo) pair passed kMaxMappingsPerRowCombo. The two
  /// getters above then count per mapping over the candidate columns of
  /// every (row, combo) pair VerifyComboInRow matched since Clear(). That
  /// costs at most P(n, |Q|) x matched pairs, for n candidate columns.
  bool recounted() const { return capped_; }

  void Clear() {
    records_.clear();
    verified_.clear();
    capped_ = false;
    settled_ = false;
  }

 private:
  friend bool VerifyComboInRow(const ComboPostings& lists, TableId table,
                               RowId row, uint32_t combo_id,
                               const PostingEntry* fixed,
                               size_t fixed_position, MappingAccumulator* acc,
                               uint64_t* probes, VerifyScratch* scratch);

  // A (row, combo) pair VerifyComboInRow matched: enough to probe its
  // candidate columns again. `lists` and `fixed` point into the caller's
  // storage.
  struct VerifiedPair {
    const ComboPostings* lists;
    TableId table;
    RowId row;
    uint32_t combo_id;
    const PostingEntry* fixed;
    size_t fixed_position;
  };

  BruteForceResult Recount() const;

  // The best mapping and its count: Recount() once capped, otherwise
  // counted from the records. Cached until the next change.
  const BruteForceResult& Settled() const;

  // Each record is a mapping followed by its combo id, record_width_
  // entries in all.
  std::vector<ColumnId> records_;
  size_t record_width_ = 0;
  std::vector<VerifiedPair> verified_;
  bool capped_ = false;
  mutable bool settled_ = false;
  mutable BruteForceResult best_;
  // Settled()'s working memory.
  mutable std::vector<uint32_t> pair_slots_;
  mutable std::vector<uint32_t> mapping_slots_;
  mutable std::vector<int64_t> counts_;
};

/// Exact containment check of one combo in row `row` of table `table`,
/// answered from the combo's posting lists (`lists`, one per combo
/// position; ResolveComboPostings). If every combo value occurs in the row,
/// records all feasible distinct-column assignments in `acc` and returns
/// true. `probes` is incremented per combo position reached.
///
/// `fixed`, when not null, binds combo position `fixed_position` to one
/// posting entry: the entry a caller read from that position's list, as
/// the executor does for its init column. Only assignments that put
/// fixed->column_id at that position count. The binding is checked in O(1),
/// without a search: it holds iff `fixed` points inside
/// lists[fixed_position] and names (table, row). Null binds nothing.
/// `lists` and `fixed` must stay valid until `acc` is read or cleared.
bool VerifyComboInRow(const ComboPostings& lists, TableId table, RowId row,
                      uint32_t combo_id, const PostingEntry* fixed,
                      size_t fixed_position, MappingAccumulator* acc,
                      uint64_t* probes, VerifyScratch* scratch);

/// Reference joinability: enumerates every ordered selection of |Q| distinct
/// candidate columns (Equation 3 mappings) and counts distinct matched
/// combos. Exponential in |Q|; intended for tests and small oracles.
BruteForceResult BruteForceJoinability(const Table& query,
                                       const std::vector<ColumnId>& key_columns,
                                       const Table& candidate);

}  // namespace mate

#endif  // MATE_CORE_JOINABILITY_H_
