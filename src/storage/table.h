// In-memory relational table with string cells — the unit stored in a corpus
// (data lake) and the unit returned by join discovery. Row deletion is
// tombstone-based so row ids stay stable for the inverted index (§5.4).
//
// Cells are stored column by column and compactly: each column keeps its
// cell payloads back to back in one byte buffer plus a uint32_t offset per
// row (cell r spans [offsets[r], offsets[r + 1])). A table therefore costs
// about its cell payload plus 4 B per cell, with no per-cell allocation, and
// a corpus column decodes straight into that buffer (DecodeColumn). The
// 32-bit offsets cap one column at 4 GiB of cell bytes; every path that
// grows a column rejects more with a NotSupported status.
//
// cell() returns a view into the column's buffer. It stays valid until the
// table is mutated (any non-const call), moved, assigned or destroyed — for
// a corpus table, also until the residency layer evicts it. SetCell splices
// the buffer in place, so it costs O(column bytes): cheap for §5.4
// maintenance edits, wrong for bulk loads (use AppendRow or
// AddColumnWithCells).

#ifndef MATE_STORAGE_TABLE_H_
#define MATE_STORAGE_TABLE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace mate {

class Table {
 public:
  /// Most cell bytes one column can hold (its offsets are 32-bit).
  static constexpr uint64_t kMaxColumnBytes =
      std::numeric_limits<uint32_t>::max();

  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t NumColumns() const { return columns_.size(); }
  size_t NumRows() const { return num_rows_; }

  /// Rows not marked deleted.
  size_t NumLiveRows() const { return num_rows_ - num_deleted_rows_; }

  /// Appends an empty-named or named column. Existing rows get empty cells.
  ColumnId AddColumn(std::string column_name);

  /// Appends a column with `column_name` and per-row `cells`; the cell count
  /// must equal NumRows().
  Status AddColumnWithCells(std::string column_name,
                            const std::vector<std::string>& cells);

  /// Replaces every cell of existing column `c` with NumRows() values
  /// decoded from the front of `*data`, each length-prefixed (the corpus
  /// cell encoding), and advances `*data` past them. Payloads are copied
  /// straight into the column's buffer. A truncated value returns
  /// Corruption with `*data` left at its length prefix, and a column past
  /// kMaxColumnBytes returns NotSupported; both leave the column's cells
  /// empty.
  Status DecodeColumn(ColumnId c, std::string_view* data);

  /// Appends `n` rows of empty cells (none tombstoned) — bulk skeleton
  /// construction for shape stubs, O(columns) amortized instead of the
  /// per-row AppendRow loop.
  void AppendEmptyRows(size_t n);

  /// Removes column `c`, shifting later column ids down by one.
  Status DropColumn(ColumnId c);

  /// Appends a row; `cells` must have exactly NumColumns() entries.
  /// Returns the new row id.
  Result<RowId> AppendRow(const std::vector<std::string>& cells);

  /// Tombstones row `r`; the row id remains allocated and IsRowDeleted(r)
  /// becomes true.
  Status DeleteRow(RowId r);

  bool IsRowDeleted(RowId r) const { return deleted_[r]; }

  /// Raw cell text as ingested; see the header comment for how long the
  /// view stays valid.
  std::string_view cell(RowId r, ColumnId c) const {
    const Column& col = columns_[c];
    return std::string_view(col.bytes.data() + col.offsets[r],
                            col.offsets[r + 1] - col.offsets[r]);
  }

  /// Overwrites one cell; O(column bytes).
  Status SetCell(RowId r, ColumnId c, std::string_view value);

  const std::string& column_name(ColumnId c) const {
    return columns_[c].name;
  }

  /// Index of the column named `column_name`, or kInvalidColumnId.
  ColumnId FindColumn(std::string_view column_name) const;

  /// The live cells of row `r` in column order.
  std::vector<std::string> RowValues(RowId r) const;

  /// Number of distinct normalized values in column `c` over live rows —
  /// the cardinality §6.1's init-column heuristic ranks
  /// (InitColumnStrategy::kMinCardinality).
  size_t ColumnCardinality(ColumnId c) const;

  /// Total bytes of cell payload (for index sizing stats).
  size_t PayloadBytes() const;

 private:
  struct Column {
    std::string name;
    std::string bytes;              // cell payloads, back to back
    std::vector<uint32_t> offsets;  // NumRows() + 1 entries, offsets[0] = 0
  };

  std::string name_;
  std::vector<Column> columns_;
  std::vector<bool> deleted_;
  size_t num_rows_ = 0;
  size_t num_deleted_rows_ = 0;
};

}  // namespace mate

#endif  // MATE_STORAGE_TABLE_H_
