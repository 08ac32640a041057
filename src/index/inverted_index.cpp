#include "index/inverted_index.h"

#include <algorithm>
#include <thread>

#include "util/string_util.h"

namespace mate {

InvertedIndex::InvertedIndex(std::unique_ptr<RowHashFunction> hash)
    : hash_(std::move(hash)), superkeys_(hash_->hash_bits()) {}

InvertedIndex::InvertedIndex(std::unique_ptr<RowHashFunction> hash,
                             ValueDictionary dictionary, PostingArena postings,
                             const std::vector<uint64_t>& rows_per_table)
    : hash_(std::move(hash)),
      dictionary_(std::move(dictionary)),
      arena_(std::move(postings)),
      superkeys_(hash_->hash_bits()),
      num_posting_entries_(arena_.entries.size()) {
  for (TableId t = 0; t < rows_per_table.size(); ++t) {
    superkeys_.EnsureTable(t, rows_per_table[t]);
  }
}

PostingSpan InvertedIndex::Lookup(std::string_view normalized) const {
  const ValueId id = dictionary_.Find(normalized);
  return id == kInvalidValueId ? PostingSpan() : List(id);
}

PostingSpan InvertedIndex::List(ValueId id) const {
  if (!overflow_.empty()) {
    auto it = overflow_.find(id);
    if (it != overflow_.end()) {
      return PostingSpan(it->second.data(), it->second.size());
    }
  }
  if (id + 1 >= arena_.offsets.size()) return PostingSpan();
  const uint64_t begin = arena_.offsets[id];
  return PostingSpan(arena_.entries.data() + begin,
                     arena_.offsets[id + 1] - begin);
}

size_t InvertedIndex::MemoryBytes() const {
  return PostingBytes() + dictionary_.MemoryBytes() + SuperKeyBytes();
}

size_t InvertedIndex::PostingBytes() const {
  size_t bytes = arena_.entries.size() * sizeof(PostingEntry) +
                 arena_.offsets.size() * sizeof(uint64_t);
  for (const auto& [id, list] : overflow_) {
    (void)id;
    bytes += list.size() * sizeof(PostingEntry);
  }
  return bytes;
}

std::vector<PostingEntry>* InvertedIndex::MutableList(ValueId id) {
  auto [it, inserted] = overflow_.try_emplace(id);
  if (inserted && id + 1 < arena_.offsets.size()) {
    it->second.assign(arena_.entries.begin() + arena_.offsets[id],
                      arena_.entries.begin() + arena_.offsets[id + 1]);
  }
  return &it->second;
}

Status InvertedIndex::AddPosting(std::string_view normalized,
                                 PostingEntry entry) {
  const ValueId id = dictionary_.GetOrAdd(normalized);
  if (id == kInvalidValueId) {
    return Status::InvalidArgument(
        "more than " + std::to_string(ValueDictionary::kMaxSize) +
        " distinct values in the index");
  }
  std::vector<PostingEntry>* list = MutableList(id);
  auto pos = std::lower_bound(list->begin(), list->end(), entry);
  // Duplicates collapse.
  if (pos != list->end() && *pos == entry) return Status::OK();
  list->insert(pos, entry);
  ++num_posting_entries_;
  return Status::OK();
}

void InvertedIndex::RemovePosting(std::string_view normalized,
                                  const PostingEntry& entry) {
  const ValueId id = dictionary_.Find(normalized);
  if (id == kInvalidValueId) return;
  const PostingSpan current = List(id);
  if (!std::binary_search(current.begin(), current.end(), entry)) return;
  std::vector<PostingEntry>* list = MutableList(id);
  list->erase(std::lower_bound(list->begin(), list->end(), entry));
  --num_posting_entries_;
}

void InvertedIndex::RehashRow(const Corpus& corpus, TableId t, RowId r) {
  const Table& table = corpus.table(t);
  BitVector key(hash_->hash_bits());
  for (ColumnId c = 0; c < table.NumColumns(); ++c) {
    hash_->AddValue(NormalizeValue(table.cell(r, c)), &key);
  }
  superkeys_.Set(t, r, key);
}

void InvertedIndex::OrSignatures(ValueId begin, ValueId end,
                                 bool concurrent) {
  BitVector signature(hash_->hash_bits());
  for (ValueId id = begin; id < end; ++id) {
    const PostingSpan list = List(id);
    if (list.empty()) continue;
    signature.Clear();
    hash_->AddValue(dictionary_.ValueOf(id), &signature);
    for (const PostingEntry& entry : list) {
      if (concurrent) {
        superkeys_.AtomicOrInto(entry.table_id, entry.row_id, signature);
      } else {
        superkeys_.OrInto(entry.table_id, entry.row_id, signature);
      }
    }
  }
}

void InvertedIndex::RebuildSuperKeys(unsigned num_threads) {
  superkeys_.ClearKeys(hash_->hash_bits());
  const ValueId total = dictionary_.size();
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  if (num_threads <= 1 || total < 2) {
    OrSignatures(0, total, /*concurrent=*/false);
    return;
  }
  const ValueId stride = (total + num_threads - 1) / num_threads;
  std::vector<std::thread> workers;
  for (ValueId begin = 0; begin < total; begin += stride) {
    const ValueId end = std::min(total, begin + stride);
    workers.emplace_back([this, begin, end] {
      OrSignatures(begin, end, /*concurrent=*/true);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

Status InvertedIndex::ResetHash(std::unique_ptr<RowHashFunction> new_hash,
                                unsigned num_threads) {
  if (new_hash == nullptr) return Status::InvalidArgument("null hash");
  hash_ = std::move(new_hash);
  RebuildSuperKeys(num_threads);
  return Status::OK();
}

Status InvertedIndex::InsertTable(const Corpus& corpus, TableId t) {
  if (t >= corpus.NumTables()) return Status::OutOfRange("no such table");
  const Table& table = corpus.table(t);
  superkeys_.EnsureTable(t, table.NumRows());
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (table.IsRowDeleted(r)) continue;
    BitVector key(hash_->hash_bits());
    for (ColumnId c = 0; c < table.NumColumns(); ++c) {
      std::string norm = NormalizeValue(table.cell(r, c));
      MATE_RETURN_IF_ERROR(AddPosting(norm, PostingEntry{t, c, r}));
      hash_->AddValue(norm, &key);
    }
    superkeys_.Set(t, r, key);
  }
  return Status::OK();
}

Status InvertedIndex::InsertRow(const Corpus& corpus, TableId t, RowId r) {
  if (t >= corpus.NumTables()) return Status::OutOfRange("no such table");
  const Table& table = corpus.table(t);
  if (r >= table.NumRows()) return Status::OutOfRange("no such row");
  superkeys_.EnsureTable(t, table.NumRows());
  BitVector key(hash_->hash_bits());
  for (ColumnId c = 0; c < table.NumColumns(); ++c) {
    std::string norm = NormalizeValue(table.cell(r, c));
    MATE_RETURN_IF_ERROR(AddPosting(norm, PostingEntry{t, c, r}));
    hash_->AddValue(norm, &key);
  }
  superkeys_.Set(t, r, key);
  return Status::OK();
}

Status InvertedIndex::AddAppendedColumn(const Corpus& corpus, TableId t) {
  if (t >= corpus.NumTables()) return Status::OutOfRange("no such table");
  const Table& table = corpus.table(t);
  if (table.NumColumns() == 0) return Status::InvalidArgument("no columns");
  const ColumnId c = static_cast<ColumnId>(table.NumColumns() - 1);
  superkeys_.EnsureTable(t, table.NumRows());
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (table.IsRowDeleted(r)) continue;
    std::string norm = NormalizeValue(table.cell(r, c));
    MATE_RETURN_IF_ERROR(AddPosting(norm, PostingEntry{t, c, r}));
    // §5.4: OR the new column's Xash result into the existing super key.
    superkeys_.OrInto(t, r, hash_->HashValue(norm));
  }
  return Status::OK();
}

Status InvertedIndex::UpdateCell(const Corpus& corpus, TableId t, RowId r,
                                 ColumnId c, std::string_view old_normalized) {
  if (t >= corpus.NumTables()) return Status::OutOfRange("no such table");
  const Table& table = corpus.table(t);
  if (r >= table.NumRows() || c >= table.NumColumns()) {
    return Status::OutOfRange("no such cell");
  }
  RemovePosting(old_normalized, PostingEntry{t, c, r});
  if (table.IsRowDeleted(r)) {
    // A rebuild posts nothing for a tombstoned row and leaves its key zero.
    superkeys_.Reset(t, r);
    return Status::OK();
  }
  MATE_RETURN_IF_ERROR(
      AddPosting(NormalizeValue(table.cell(r, c)), PostingEntry{t, c, r}));
  // §5.4: a cell update requires a complete re-hash of the row's super key
  // (bits of the old value cannot be un-ORed).
  RehashRow(corpus, t, r);
  return Status::OK();
}

Status InvertedIndex::DeleteRow(const Corpus& corpus, TableId t, RowId r) {
  if (t >= corpus.NumTables()) return Status::OutOfRange("no such table");
  const Table& table = corpus.table(t);
  if (r >= table.NumRows()) return Status::OutOfRange("no such row");
  for (ColumnId c = 0; c < table.NumColumns(); ++c) {
    RemovePosting(NormalizeValue(table.cell(r, c)), PostingEntry{t, c, r});
  }
  superkeys_.Reset(t, r);
  return Status::OK();
}

Status InvertedIndex::DeleteTable(const Corpus& corpus, TableId t) {
  if (t >= corpus.NumTables()) return Status::OutOfRange("no such table");
  const Table& table = corpus.table(t);
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (table.IsRowDeleted(r)) continue;
    MATE_RETURN_IF_ERROR(DeleteRow(corpus, t, r));
  }
  return Status::OK();
}

Status InvertedIndex::DropColumn(const Corpus& corpus, TableId t,
                                 ColumnId dropped,
                                 const std::vector<std::string>& removed_cells) {
  if (t >= corpus.NumTables()) return Status::OutOfRange("no such table");
  const Table& table = corpus.table(t);
  if (removed_cells.size() != table.NumRows()) {
    return Status::InvalidArgument("removed_cells size mismatch");
  }
  // Remove the old PL items: the dropped column itself, plus every column
  // that used to sit to its right (their ids have shifted down by one).
  for (RowId r = 0; r < table.NumRows(); ++r) {
    RemovePosting(NormalizeValue(removed_cells[r]),
                  PostingEntry{t, dropped, r});
  }
  for (ColumnId c = dropped; c < table.NumColumns(); ++c) {
    for (RowId r = 0; r < table.NumRows(); ++r) {
      RemovePosting(NormalizeValue(table.cell(r, c)),
                    PostingEntry{t, static_cast<ColumnId>(c + 1), r});
    }
  }
  // Re-add the shifted columns under their new ids and rehash every live
  // row's super key (the dropped value's bits cannot be un-ORed).
  for (ColumnId c = dropped; c < table.NumColumns(); ++c) {
    for (RowId r = 0; r < table.NumRows(); ++r) {
      if (table.IsRowDeleted(r)) continue;
      MATE_RETURN_IF_ERROR(
          AddPosting(NormalizeValue(table.cell(r, c)), PostingEntry{t, c, r}));
    }
  }
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (table.IsRowDeleted(r)) continue;
    RehashRow(corpus, t, r);
  }
  return Status::OK();
}

}  // namespace mate
