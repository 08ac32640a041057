// A corpus is the data lake: the collection of candidate tables that join
// discovery searches over (§2). It owns the tables and exposes the corpus
// statistics that parameterize XASH (unique-value count for Eq. 5, character
// frequencies for §5.3.2, average column count for the Bloom baseline).
//
// Residency is delegated to a TableStore (storage/table_store.h): a corpus
// adopted or built in memory is fully resident, while one opened lazily from
// a corpus file knows every table's *shape* up front and materializes a
// table's cells on its first access. Discovery never reads cells (it
// verifies from the index), so callers that only need shape — shard
// planners, validators, result printers — should use the table_*
// accessors, which never trigger materialization.

#ifndef MATE_STORAGE_CORPUS_H_
#define MATE_STORAGE_CORPUS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/table.h"
#include "storage/table_store.h"
#include "storage/types.h"
#include "util/char_frequency.h"
#include "util/status.h"

namespace mate {

/// Corpus-wide statistics (cf. §7.1's corpus descriptions).
struct CorpusStats {
  uint64_t num_tables = 0;
  uint64_t num_columns = 0;
  uint64_t num_rows = 0;          // live rows
  uint64_t num_cells = 0;         // live cells
  uint64_t num_unique_values = 0; // distinct normalized values
  double avg_columns_per_table = 0.0;
  double avg_rows_per_table = 0.0;
  std::array<uint64_t, kAlphabetSize> char_counts{};

  std::string ToString() const;

  friend bool operator==(const CorpusStats& a, const CorpusStats& b);
};

/// Appends/parses the canonical binary encoding of CorpusStats — shared by
/// the index image (so a loaded index reconstructs its hash) and the corpus
/// file header (so a lazy open needs no ComputeStats scan).
void AppendCorpusStats(std::string* out, const CorpusStats& stats);
bool ParseCorpusStats(std::string_view* input, CorpusStats* stats);

class Corpus {
 public:
  Corpus() = default;
  /// Adopts a store (the lazy-open path hands one over).
  explicit Corpus(TableStore store) : store_(std::move(store)) {}

  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;
  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;

  /// Adds a table and returns its id.
  TableId AddTable(Table table) { return store_.Add(std::move(table)); }

  size_t NumTables() const { return store_.NumTables(); }

  /// The table's cells, materializing them on first access for lazily
  /// opened corpora (thread-safe; concurrent callers parse each table
  /// once). Callers that only need shape should prefer the table_*
  /// accessors below.
  const Table& table(TableId t) const { return store_.Get(t); }
  Table* mutable_table(TableId t) { return store_.Mutable(t); }


  // ---- shape accessors (never materialize) --------------------------

  const std::string& table_name(TableId t) const {
    return store_.table_name(t);
  }
  size_t table_num_columns(TableId t) const {
    return store_.table_num_columns(t);
  }
  const std::string& table_column_name(TableId t, ColumnId c) const {
    return store_.column_name(t, c);
  }
  size_t table_num_rows(TableId t) const {
    return store_.table_num_rows(t);
  }
  size_t table_num_live_rows(TableId t) const {
    return store_.table_num_live_rows(t);
  }

  // ---- residency ----------------------------------------------------

  /// Materializes table `t` and reports the store's sticky parse status.
  Status EnsureTable(TableId t) const { return store_.EnsureTable(t); }
  /// Materializes every table; OK iff every cell blob parsed.
  Status MaterializeAll() const { return store_.MaterializeAll(); }

  /// Arms the residency byte budget (0 = unlimited). Set before queries.
  void SetBudget(uint64_t bytes) { store_.SetBudget(bytes); }
  /// Evicts least-recently-touched tables down to the budget. Idle points
  /// only (mirrors the mutation contract — Session calls it after the work
  /// that materializes: Open, Save).
  void EvictToBudget() const { store_.EvictToBudget(); }
  ResidencyStats residency() const { return store_.residency(); }
  uint64_t table_resident_bytes(TableId t) const {
    return store_.table_resident_bytes(t);
  }
  uint64_t table_cell_bytes(TableId t) const {
    return store_.table_cell_bytes(t);
  }

  bool table_resident(TableId t) const { return store_.IsResident(t); }
  size_t tables_resident() const { return store_.tables_resident(); }
  bool fully_resident() const { return store_.fully_resident(); }
  /// Sticky first materialization error (section + byte offset).
  Status load_status() const { return store_.load_status(); }

  /// Full scan computing the statistics above (normalizes every cell —
  /// materializes the whole corpus).
  CorpusStats ComputeStats() const;

 private:
  TableStore store_;
};

/// Deep equality of one table: name, columns, cells, and tombstones.
bool TablesEqual(const Table& a, const Table& b);

/// Deep equality over shape, cells, and tombstones (materializes both).
bool CorporaEqual(const Corpus& a, const Corpus& b);

}  // namespace mate

#endif  // MATE_STORAGE_CORPUS_H_
