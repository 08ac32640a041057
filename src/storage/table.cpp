#include "storage/table.h"

#include <cstring>
#include <unordered_set>

#include "util/coding.h"
#include "util/string_util.h"

namespace mate {

namespace {

Status ColumnTooLarge() {
  return Status::NotSupported("column cells exceed the 4 GiB limit");
}

}  // namespace

ColumnId Table::AddColumn(std::string column_name) {
  Column col;
  col.name = std::move(column_name);
  col.offsets.assign(num_rows_ + 1, 0);
  columns_.push_back(std::move(col));
  return static_cast<ColumnId>(columns_.size() - 1);
}

Status Table::AddColumnWithCells(std::string column_name,
                                 const std::vector<std::string>& cells) {
  if (cells.size() != num_rows_) {
    return Status::InvalidArgument("cell count does not match row count");
  }
  Column col;
  col.name = std::move(column_name);
  col.offsets.reserve(num_rows_ + 1);
  col.offsets.push_back(0);
  uint64_t end = 0;
  for (const std::string& cell : cells) {
    end += cell.size();
    if (end > kMaxColumnBytes) return ColumnTooLarge();
    col.offsets.push_back(static_cast<uint32_t>(end));
  }
  col.bytes.reserve(static_cast<size_t>(end));
  for (const std::string& cell : cells) col.bytes.append(cell);
  columns_.push_back(std::move(col));
  return Status::OK();
}

Status Table::DecodeColumn(ColumnId c, std::string_view* data) {
  if (c >= columns_.size()) {
    return Status::OutOfRange("no such column");
  }
  Column& col = columns_[c];
  col.bytes.clear();
  col.offsets.resize(num_rows_ + 1);
  // Pass 1 reads only the length prefixes: it bounds-checks every cell and
  // fills the offsets, so pass 2 copies the payloads into a buffer sized
  // exactly once.
  std::string_view rest = *data;
  uint64_t end = 0;
  for (size_t r = 0; r < num_rows_; ++r) {
    const std::string_view at = rest;
    uint64_t len = 0;
    if (!GetVarint64(&rest, &len) || len > rest.size()) {
      *data = at;
      col.offsets.assign(num_rows_ + 1, 0);
      return Status::Corruption("truncated cell");
    }
    rest.remove_prefix(static_cast<size_t>(len));
    end += len;
    if (end > kMaxColumnBytes) {
      col.offsets.assign(num_rows_ + 1, 0);
      return ColumnTooLarge();
    }
    col.offsets[r + 1] = static_cast<uint32_t>(end);
  }
  col.bytes.resize(static_cast<size_t>(end));
  char* out = col.bytes.data();
  for (size_t r = 0; r < num_rows_; ++r) {
    uint64_t len = 0;
    (void)GetVarint64(data, &len);  // validated by pass 1
    std::memcpy(out + col.offsets[r], data->data(), static_cast<size_t>(len));
    data->remove_prefix(static_cast<size_t>(len));
  }
  return Status::OK();
}

void Table::AppendEmptyRows(size_t n) {
  for (Column& col : columns_) {
    col.offsets.resize(num_rows_ + n + 1, col.offsets.back());
  }
  deleted_.resize(num_rows_ + n, false);
  num_rows_ += n;
}

Status Table::DropColumn(ColumnId c) {
  if (c >= columns_.size()) {
    return Status::OutOfRange("no such column");
  }
  columns_.erase(columns_.begin() + c);
  return Status::OK();
}

Result<RowId> Table::AppendRow(const std::vector<std::string>& cells) {
  if (cells.size() != columns_.size()) {
    return Status::InvalidArgument("cell count does not match column count");
  }
  // Checked for every column first, so a rejected row leaves no trace.
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].bytes.size() + cells[c].size() > kMaxColumnBytes) {
      return ColumnTooLarge();
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = columns_[c];
    col.bytes.append(cells[c]);
    col.offsets.push_back(static_cast<uint32_t>(col.bytes.size()));
  }
  deleted_.push_back(false);
  return static_cast<RowId>(num_rows_++);
}

Status Table::DeleteRow(RowId r) {
  if (r >= num_rows_) return Status::OutOfRange("no such row");
  if (deleted_[r]) return Status::AlreadyExists("row already deleted");
  deleted_[r] = true;
  ++num_deleted_rows_;
  return Status::OK();
}

Status Table::SetCell(RowId r, ColumnId c, std::string_view value) {
  if (r >= num_rows_ || c >= columns_.size()) {
    return Status::OutOfRange("no such cell");
  }
  Column& col = columns_[c];
  const uint32_t begin = col.offsets[r];
  const uint32_t old_size = col.offsets[r + 1] - begin;
  if (col.bytes.size() - old_size + value.size() > kMaxColumnBytes) {
    return ColumnTooLarge();
  }
  col.bytes.replace(begin, old_size, value);
  // Unsigned wrap-around adds a negative delta correctly: every shifted
  // offset lands back inside [0, kMaxColumnBytes].
  const uint32_t delta = static_cast<uint32_t>(value.size()) - old_size;
  for (size_t i = r + 1; i <= num_rows_; ++i) col.offsets[i] += delta;
  return Status::OK();
}

ColumnId Table::FindColumn(std::string_view column_name) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].name == column_name) return static_cast<ColumnId>(c);
  }
  return kInvalidColumnId;
}

std::vector<std::string> Table::RowValues(RowId r) const {
  std::vector<std::string> values;
  values.reserve(columns_.size());
  for (ColumnId c = 0; c < columns_.size(); ++c) {
    values.emplace_back(cell(r, c));
  }
  return values;
}

size_t Table::ColumnCardinality(ColumnId c) const {
  std::unordered_set<std::string> distinct;
  for (RowId r = 0; r < num_rows_; ++r) {
    if (deleted_[r]) continue;
    distinct.insert(NormalizeValue(cell(r, c)));
  }
  return distinct.size();
}

size_t Table::PayloadBytes() const {
  size_t bytes = 0;
  for (const Column& col : columns_) bytes += col.bytes.size();
  return bytes;
}

}  // namespace mate
