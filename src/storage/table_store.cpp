#include "storage/table_store.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "util/coding.h"

namespace mate {

namespace {

// Rebuilds a table of `shape` with every cell empty — the skeleton every
// decode fills column by column, and what a failed parse leaves of the
// columns it did not fill. Shape-complete (columns, row count, tombstones),
// so downstream cell accesses stay in bounds; the sticky status is what
// makes a failure visible.
Table MakeShapeStub(const TableShape& shape) {
  Table stub(shape.name);
  for (const std::string& column : shape.column_names) stub.AddColumn(column);
  stub.AppendEmptyRows(static_cast<size_t>(shape.num_rows));
  for (uint64_t b = 0; b < shape.deleted_bitmap.size(); ++b) {
    if (shape.deleted_bitmap[b] == 0) continue;
    for (uint64_t r = b * 8; r < std::min(b * 8 + 8, shape.num_rows); ++r) {
      if ((shape.deleted_bitmap[b] >> (r % 8)) & 1) {
        (void)stub.DeleteRow(static_cast<RowId>(r));
      }
    }
  }
  return stub;
}

// " (cell region, table 'name', column c, byte offset o of n)" — the
// location every cell decoding error carries.
std::string CellRegionContext(const TableShape& shape, ColumnId column,
                              uint64_t offset, uint64_t image_size) {
  return " (cell region, table '" + shape.name + "', column " +
         std::to_string(column) + ", byte offset " + std::to_string(offset) +
         " of " + std::to_string(image_size) + ")";
}

// Decodes one column's cells out of its `blob` slice, which starts at
// absolute offset `blob_offset` in the image, into column `column` of
// `table`, a table of `shape` whose other columns are left alone. The
// slice must hold exactly the column's cells: a short one fails inside
// Table::DecodeColumn, a long one on its trailing bytes.
Status ParseColumnCells(const TableShape& shape, ColumnId column,
                        std::string_view blob, uint64_t blob_offset,
                        uint64_t image_size, Table* table) {
  std::string_view data = blob;
  const Status status = table->DecodeColumn(column, &data);
  const uint64_t at = blob_offset + (blob.size() - data.size());
  if (!status.ok()) {
    std::string message = "corpus: " + status.message() +
                          CellRegionContext(shape, column, at, image_size);
    return status.IsCorruption() ? Status::Corruption(std::move(message))
                                 : Status::NotSupported(std::move(message));
  }
  if (!data.empty()) {
    return Status::Corruption(
        "corpus: " + std::to_string(data.size()) +
        " trailing bytes after the column's cells" +
        CellRegionContext(shape, column, at, image_size));
  }
  return Status::OK();
}

}  // namespace

struct TableStore::Impl {
  // Residency state of one lazy slot. `resident` is published with release
  // order after the slot's table writes; the fast path and the shape
  // accessors acquire-load it to decide between the header and the live
  // table (which Mutable may have reshaped). Everything non-atomic is
  // guarded by `mu`.
  struct Slot {
    std::mutex mu;
    bool pinned = false;
    bool was_evicted = false;
    std::atomic<bool> resident{false};
    // LRU clock stamp of the last Get touch.
    std::atomic<uint64_t> last_touch{0};
  };

  // Slots [0, num_lazy) are backed by `shapes`; anything beyond was Add'ed
  // resident. The vector is sized once at Lazy() — concurrent materializers
  // write distinct slots and never resize, so element addresses are stable.
  std::vector<Table> tables;
  std::vector<TableShape> shapes;
  std::unique_ptr<Slot[]> slots;
  MappedFile backing;
  size_t num_lazy = 0;
  uint64_t image_size = 0;
  std::atomic<uint64_t> budget{0};
  std::atomic<uint64_t> resident_bytes{0};
  std::atomic<uint64_t> peak_resident_bytes{0};
  std::atomic<uint64_t> bytes_materialized{0};
  std::atomic<uint64_t> bytes_evicted{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> rematerializations{0};
  std::atomic<uint64_t> clock{0};
  std::atomic<size_t> resident_count{0};
  std::atomic<bool> has_error{false};
  mutable std::mutex mu;  // guards `error` and the backing release
  Status error;

  bool SlotResident(TableId t) const {
    return t >= num_lazy ||
           slots[t].resident.load(std::memory_order_acquire);
  }

  void Touch(Slot& slot) {
    slot.last_touch.store(
        clock.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }

  void LatchError(const Status& status) {
    std::lock_guard<std::mutex> lock(mu);
    if (!has_error.load(std::memory_order_relaxed)) {
      error = status;
      has_error.store(true, std::memory_order_release);
    }
  }

  // Accounts `bytes` of newly resident extent and maintains the honest
  // high-water mark (the memory_budget bench's peak gate reads it).
  void AddResidentBytes(uint64_t bytes) {
    bytes_materialized.fetch_add(bytes, std::memory_order_relaxed);
    const uint64_t now =
        resident_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_resident_bytes.load(std::memory_order_relaxed);
    while (now > peak && !peak_resident_bytes.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  // Under slot.mu: parses every column of cold lazy table `t`, each from
  // its own extent, into a shape-complete skeleton, and publishes the slot
  // resident. A failed column latches the sticky status and leaves the
  // rest of the table as the skeleton or Table::DecodeColumn left it; the
  // slot is resident either way, so it never re-parses the damage. The
  // thread whose slot completes the set releases the mapping — but only
  // without a budget: an armed budget needs the image alive so evicted
  // tables can re-parse.
  void MaterializeLocked(TableId t, Slot& slot) {
    if (slot.resident.load(std::memory_order_relaxed)) return;
    const TableShape& shape = shapes[t];
    tables[t] = MakeShapeStub(shape);
    if (slot.was_evicted) {
      slot.was_evicted = false;
      rematerializations.fetch_add(1, std::memory_order_relaxed);
    }
    const std::string_view image = backing.view();
    uint64_t offset = shape.cell_offset;  // column c's slice starts here
    for (ColumnId c = 0; c < shape.column_names.size(); ++c) {
      const Status status = ParseColumnCells(
          shape, c,
          image.substr(static_cast<size_t>(offset),
                       static_cast<size_t>(shape.column_bytes[c])),
          offset, image_size, &tables[t]);
      if (!status.ok()) {
        LatchError(status);
        break;
      }
      offset += shape.column_bytes[c];
    }
    AddResidentBytes(shape.cell_bytes);
    slot.resident.store(true, std::memory_order_release);
    if (resident_count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            num_lazy &&
        budget.load(std::memory_order_relaxed) == 0) {
      std::lock_guard<std::mutex> lock(mu);
      backing.Release();
    }
  }

  void EnsureResident(TableId t) {
    if (t >= num_lazy) return;
    Slot& slot = slots[t];
    if (!slot.resident.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(slot.mu);
      MaterializeLocked(t, slot);
    }
    Touch(slot);
  }

  Status LoadStatus() const {
    if (!has_error.load(std::memory_order_acquire)) return Status::OK();
    std::lock_guard<std::mutex> lock(mu);
    return error;
  }

  Status MaterializeAll() {
    for (TableId t = 0; t < num_lazy; ++t) EnsureResident(t);
    return LoadStatus();
  }

  // Idle-point contract: no concurrent materializer or reader. The slot
  // locks are still taken so the release-ordered state flip pairs with the
  // next toucher's acquire.
  void EvictToBudget() {
    const uint64_t limit = budget.load(std::memory_order_relaxed);
    if (limit == 0 || backing.view().empty()) return;
    if (resident_bytes.load(std::memory_order_relaxed) <= limit) return;
    // Oldest touch first; table id breaks ties deterministically.
    std::vector<std::pair<uint64_t, TableId>> order;
    for (TableId t = 0; t < num_lazy; ++t) {
      if (slots[t].resident.load(std::memory_order_acquire)) {
        order.emplace_back(
            slots[t].last_touch.load(std::memory_order_relaxed), t);
      }
    }
    std::sort(order.begin(), order.end());
    for (const auto& [touch, t] : order) {
      if (resident_bytes.load(std::memory_order_relaxed) <= limit) break;
      Slot& slot = slots[t];
      std::lock_guard<std::mutex> lock(slot.mu);
      if (slot.pinned || !slot.resident.load(std::memory_order_relaxed)) {
        continue;
      }
      resident_count.fetch_sub(1, std::memory_order_relaxed);
      const uint64_t held = shapes[t].cell_bytes;
      resident_bytes.fetch_sub(held, std::memory_order_relaxed);
      bytes_evicted.fetch_add(held, std::memory_order_relaxed);
      evictions.fetch_add(1, std::memory_order_relaxed);
      slot.was_evicted = true;
      tables[t] = Table();  // shape keeps serving from shapes[t]
      slot.resident.store(false, std::memory_order_release);
    }
  }
};

TableStore::TableStore() : impl_(std::make_unique<Impl>()) {}
TableStore::~TableStore() = default;
TableStore::TableStore(TableStore&&) noexcept = default;
TableStore& TableStore::operator=(TableStore&&) noexcept = default;

TableStore TableStore::Lazy(std::vector<TableShape> shapes,
                            MappedFile backing) {
  TableStore store;
  Impl* impl = store.impl_.get();
  impl->num_lazy = shapes.size();
  impl->image_size = backing.size();
  impl->shapes = std::move(shapes);
  impl->backing = std::move(backing);
  impl->tables.resize(impl->num_lazy);
  impl->slots = std::make_unique<Impl::Slot[]>(impl->num_lazy);
  if (impl->num_lazy == 0) impl->backing.Release();
  return store;
}

size_t TableStore::NumTables() const { return impl_->tables.size(); }

TableId TableStore::Add(Table table) {
  impl_->tables.push_back(std::move(table));
  return static_cast<TableId>(impl_->tables.size() - 1);
}

const Table& TableStore::Get(TableId t) const {
  impl_->EnsureResident(t);
  return impl_->tables[t];
}

Status TableStore::EnsureTable(TableId t) const {
  impl_->EnsureResident(t);
  return impl_->LoadStatus();
}

Status TableStore::MaterializeAll() const { return impl_->MaterializeAll(); }

Table* TableStore::Mutable(TableId t) {
  impl_->EnsureResident(t);
  if (t < impl_->num_lazy) {
    std::lock_guard<std::mutex> lock(impl_->slots[t].mu);
    impl_->slots[t].pinned = true;
  }
  return &impl_->tables[t];
}

const std::string& TableStore::table_name(TableId t) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) return impl->shapes[t].name;
  return impl->tables[t].name();
}

size_t TableStore::table_num_columns(TableId t) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) return impl->shapes[t].column_names.size();
  return impl->tables[t].NumColumns();
}

const std::string& TableStore::column_name(TableId t, ColumnId c) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) return impl->shapes[t].column_names[c];
  return impl->tables[t].column_name(c);
}

size_t TableStore::table_num_rows(TableId t) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) {
    return static_cast<size_t>(impl->shapes[t].num_rows);
  }
  return impl->tables[t].NumRows();
}

size_t TableStore::table_num_live_rows(TableId t) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) {
    return static_cast<size_t>(impl->shapes[t].num_rows -
                               impl->shapes[t].num_deleted_rows);
  }
  return impl->tables[t].NumLiveRows();
}

void TableStore::SetBudget(uint64_t bytes) {
  impl_->budget.store(bytes, std::memory_order_relaxed);
}

void TableStore::EvictToBudget() const { impl_->EvictToBudget(); }

ResidencyStats TableStore::residency() const {
  const Impl* impl = impl_.get();
  ResidencyStats stats;
  stats.budget_bytes = impl->budget.load(std::memory_order_relaxed);
  stats.resident_bytes =
      impl->resident_bytes.load(std::memory_order_relaxed);
  stats.peak_resident_bytes =
      impl->peak_resident_bytes.load(std::memory_order_relaxed);
  stats.bytes_materialized =
      impl->bytes_materialized.load(std::memory_order_relaxed);
  stats.bytes_evicted = impl->bytes_evicted.load(std::memory_order_relaxed);
  stats.evictions = impl->evictions.load(std::memory_order_relaxed);
  stats.rematerializations =
      impl->rematerializations.load(std::memory_order_relaxed);
  stats.tables_resident = tables_resident();
  return stats;
}

uint64_t TableStore::table_resident_bytes(TableId t) const {
  const Impl* impl = impl_.get();
  if (t < impl->num_lazy) {
    return impl->SlotResident(t) ? impl->shapes[t].cell_bytes : 0;
  }
  return TableCellBytes(impl->tables[t]);
}

uint64_t TableStore::table_cell_bytes(TableId t) const {
  const Impl* impl = impl_.get();
  if (t < impl->num_lazy) return impl->shapes[t].cell_bytes;
  return TableCellBytes(impl->tables[t]);
}

bool TableStore::IsResident(TableId t) const {
  return impl_->SlotResident(t);
}

size_t TableStore::tables_resident() const {
  const Impl* impl = impl_.get();
  return impl->resident_count.load(std::memory_order_acquire) +
         (impl->tables.size() - impl->num_lazy);
}

bool TableStore::fully_resident() const {
  const Impl* impl = impl_.get();
  return impl->resident_count.load(std::memory_order_acquire) ==
         impl->num_lazy;
}

Status TableStore::load_status() const { return impl_->LoadStatus(); }

void AppendTableCells(const Table& table, std::string* out) {
  for (ColumnId c = 0; c < table.NumColumns(); ++c) {
    for (RowId r = 0; r < table.NumRows(); ++r) {
      PutLengthPrefixed(out, table.cell(r, c));
    }
  }
}

uint64_t TableCellBytes(const Table& table) {
  uint64_t bytes = 0;
  for (ColumnId c = 0; c < table.NumColumns(); ++c) {
    bytes += TableColumnCellBytes(table, c);
  }
  return bytes;
}

uint64_t TableColumnCellBytes(const Table& table, ColumnId c) {
  uint64_t bytes = 0;
  for (RowId r = 0; r < table.NumRows(); ++r) {
    const size_t cell = table.cell(r, c).size();
    bytes += VarintLength(cell) + cell;
  }
  return bytes;
}

}  // namespace mate
