// TableStore — the residency layer under a Corpus. It decouples "the corpus
// exists and has this shape" from "this table's cells are resident":
//
//   * a *resident* store owns fully materialized Tables (the classic
//     in-memory corpus: built from CSVs or adopted);
//   * a *lazy* store is built from a corpus-format shape header plus the
//     file image: names, column names, row counts, and tombstone bitmaps
//     are known up front, while a table's cells parse on its first access
//     — thread-safe via a per-table latch, so concurrent readers race
//     safely and parse each table once. Eager corpus loads are lazy stores
//     drained by MaterializeAll, so every corpus image decodes through
//     this one per-column path.
//
// Queries never read cells: join verification answers from the index's
// posting lists (core/joinability.h), and so does re-keying. What
// materializes cells is the work that needs every cell — Save, the
// ComputeStats fallback, §5.4 maintenance edits through Mutable — and the
// baselines and tools that read tables directly. For those, residency is
// buffer-manager shaped: SetBudget(bytes) arms a residency budget (0 =
// unlimited); EvictToBudget() drops the least-recently-touched unpinned
// tables until the resident extent bytes fit again. Eviction must only run
// at idle points (mirroring the mutation/quiesce contract: never under an
// in-flight reader — mate::Session calls it after Open and Save). An
// evicted table re-parses on its next touch under the same per-table
// latch, so re-touch is bit-identical. With a budget armed the mmap stays
// alive for re-parses; only the unbudgeted store releases it once every
// table is resident. Tables handed out via Mutable() are pinned: in-memory
// edits are never silently lost to an evict + re-parse.
//
// Failure model: a table whose cell blob is corrupt materializes as a
// *shape-complete stub* (declared columns and row count, the header's
// tombstones; columns left unparsed read as empty cells) so no caller
// indexes out of bounds, and the first error is latched into load_status()
// with the section and byte offset — a corrupt table is therefore never
// silently empty: the sticky status names it, and Session surfaces it from
// every query path.
//
// Thread-safety: Get/EnsureTable/MaterializeAll and the shape accessors
// may run concurrently. Add/Mutable/EvictToBudget (and moving the store)
// require the store to be otherwise idle, mirroring Session's mutation
// contract.

#ifndef MATE_STORAGE_TABLE_STORE_H_
#define MATE_STORAGE_TABLE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"
#include "storage/types.h"
#include "util/mapped_file.h"
#include "util/status.h"

namespace mate {

/// Everything the corpus-format table directory records about one table:
/// the full shape and the byte extent of its cell blob in the backing
/// image.
struct TableShape {
  std::string name;
  std::vector<std::string> column_names;
  uint64_t num_rows = 0;
  uint64_t num_deleted_rows = 0;
  /// Tombstones, bit r of byte r/8; (num_rows + 7) / 8 bytes.
  std::string deleted_bitmap;
  /// Absolute byte offset / size of the cell blob in the backing image.
  uint64_t cell_offset = 0;
  uint64_t cell_bytes = 0;
  /// Per-column blob sizes, one per column, tiling the cell blob in column
  /// order (they sum to cell_bytes). Every cell decode — a single column or
  /// the whole table — reads each column from its own extent.
  std::vector<uint64_t> column_bytes;
};

/// Residency gauges + cumulative counters for the memory-governance layer
/// (surfaced through `mate_cli stats` and the memory_budget bench). Byte
/// figures are on-disk directory extents, so they are deterministic for a
/// given access pattern.
struct ResidencyStats {
  uint64_t budget_bytes = 0;         // 0 = unlimited
  uint64_t resident_bytes = 0;       // extent bytes currently resident
  uint64_t peak_resident_bytes = 0;  // high-water mark of resident_bytes
  uint64_t bytes_materialized = 0;   // cumulative extent bytes parsed
  uint64_t bytes_evicted = 0;        // cumulative extent bytes evicted
  uint64_t evictions = 0;            // tables evicted
  uint64_t rematerializations = 0;   // tables re-parsed after an eviction
  uint64_t tables_resident = 0;
};

class TableStore {
 public:
  /// An empty resident store (Add tables to it).
  TableStore();
  ~TableStore();

  TableStore(TableStore&&) noexcept;
  TableStore& operator=(TableStore&&) noexcept;
  TableStore(const TableStore&) = delete;
  TableStore& operator=(const TableStore&) = delete;

  /// A lazy store over `backing`: the shapes come from a parsed table
  /// directory whose cell extents — per table and per column — the parser
  /// has already bounds-checked against the image. Cells materialize per
  /// table on first access; without a budget the mapping is released once
  /// every table is resident.
  static TableStore Lazy(std::vector<TableShape> shapes, MappedFile backing);

  size_t NumTables() const;

  /// Appends a resident table. Requires the store to be idle.
  TableId Add(Table table);

  // ---- cells (materialize on demand) --------------------------------

  /// The table, fully materializing its cells on first access (blocking;
  /// other threads asking for the same table wait on the per-table latch).
  /// A failed parse yields a shape-complete stub and latches load_status().
  const Table& Get(TableId t) const;

  /// Get + error channel: fully materializes `t` and returns the store's
  /// sticky status, so callers that can propagate errors see the parse
  /// failure (with section + byte offset) instead of a stub.
  Status EnsureTable(TableId t) const;

  /// Materializes every table (what Save uses). Returns the
  /// sticky status — OK iff every cell blob parsed. Ignores the budget;
  /// Session re-evicts afterwards when one is armed.
  Status MaterializeAll() const;

  /// Mutable access materializes first (§5.4 maintenance edits need the
  /// cells) and *pins* the table: a pinned table is never evicted, so
  /// edits cannot be lost to a re-parse. Requires the store to be
  /// otherwise idle.
  Table* Mutable(TableId t);

  // ---- shape (never materializes) -----------------------------------

  const std::string& table_name(TableId t) const;
  size_t table_num_columns(TableId t) const;
  const std::string& column_name(TableId t, ColumnId c) const;
  size_t table_num_rows(TableId t) const;
  size_t table_num_live_rows(TableId t) const;

  // ---- residency ----------------------------------------------------

  /// Arms the byte budget (0 = unlimited). Set it before queries run —
  /// an unbudgeted store releases its backing at full residency, after
  /// which eviction has nothing to re-parse from and becomes a no-op.
  void SetBudget(uint64_t bytes);

  /// Drops least-recently-touched unpinned tables until resident extent
  /// bytes fit the budget. No-op when the budget is 0 (or the backing is
  /// gone). MUST only be called at an idle point: no in-flight Get
  /// (mirrors the mutation contract).
  void EvictToBudget() const;

  ResidencyStats residency() const;

  /// Directory extent bytes of `t` currently resident (0 when cold, its
  /// cell_bytes when materialized). Resident (non-lazy) tables report their
  /// serialized cell size.
  uint64_t table_resident_bytes(TableId t) const;
  /// Total directory extent bytes of `t` (its serialized cell size).
  uint64_t table_cell_bytes(TableId t) const;

  /// True once `t`'s cells are materialized.
  bool IsResident(TableId t) const;
  size_t tables_resident() const;
  bool fully_resident() const;

  /// Sticky first materialization error (section + byte offset), OK while
  /// every parse so far has succeeded.
  Status load_status() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Serializes `table`'s cells as one corpus-format cell blob: cells
/// column-major, each length-prefixed.
void AppendTableCells(const Table& table, std::string* out);

/// Byte size AppendTableCells would append — the directory's cell_bytes.
uint64_t TableCellBytes(const Table& table);

/// Byte size of column `c`'s slice of that blob — the directory's
/// per-column extent.
uint64_t TableColumnCellBytes(const Table& table, ColumnId c);

}  // namespace mate

#endif  // MATE_STORAGE_TABLE_STORE_H_
