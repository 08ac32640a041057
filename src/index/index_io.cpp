#include "index/index_io.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "storage/corpus_io.h"
#include "util/coding.h"
#include "util/mapped_file.h"
#include "util/parse_cursor.h"

namespace mate {

namespace {
constexpr char kMagic[] = "MATEINDX";
constexpr size_t kMagicLen = 8;
// v3: dense lists in value-id order with delta-coded table and row ids, a
// total entry count, and per-table column bounds in the shape section.
constexpr uint32_t kVersion = 3;
// Every shape count becomes an id bound, and ids are 32-bit.
constexpr uint64_t kMaxIdBound = uint64_t{1} << 32;

// Calls fn(table_delta, row_code, entry) for each entry of `list`, in
// order: the table id as a delta from the previous entry's, the row id as
// a delta from the previous entry's within one table and absolute at a
// table change. The first entry codes against table 0, row 0.
template <typename Fn>
void ForEachCodedEntry(PostingSpan list, Fn&& fn) {
  TableId table = 0;
  RowId row = 0;
  for (const PostingEntry& entry : list) {
    if (entry.table_id != table) row = 0;
    fn(uint64_t{entry.table_id} - table, uint64_t{entry.row_id} - row, entry);
    table = entry.table_id;
    row = entry.row_id;
  }
}

}  // namespace

// Phase-1/2 state shared between Begin and Finish. The whole image stays
// reachable through `file` (mmap'd when possible) so phase 2 can stream the
// bulky sections without an upfront copy.
struct PhasedIndexLoad::Impl {
  MappedFile file;
  ParseCursor cursor;
  HashFamily family = HashFamily::kXash;
  CorpusStats stats;
  std::vector<uint64_t> rows_per_table;
  std::vector<uint64_t> column_bounds;
  uint64_t dict_size = 0;
  uint64_t total_entries = 0;
  std::string_view posting_region;
  std::string_view superkey_region;
  std::unique_ptr<InvertedIndex> owned;
  InvertedIndex* target = nullptr;
  bool finished = false;
};

// Friend of InvertedIndex: fills internals on load.
class IndexLoader {
 public:
  // Header, stats, shape, dictionary; bounds-checks the posting region.
  static Status ParsePhase1(PhasedIndexLoad::Impl* impl) {
    ParseCursor& cursor = impl->cursor;
    std::string_view* data = &cursor.remaining;
    cursor.section = "header";
    if (data->size() < kMagicLen + 4 ||
        data->substr(0, kMagicLen) != std::string_view(kMagic, kMagicLen)) {
      return cursor.Corrupt("bad magic");
    }
    data->remove_prefix(kMagicLen);
    uint32_t version = 0;
    if (!GetFixed32(data, &version)) return cursor.Corrupt("bad version");
    if (version != kVersion) {
      return cursor.Corrupt("unsupported version " + std::to_string(version) +
                            " (expected " + std::to_string(kVersion) + ")");
    }
    std::string_view family_name;
    if (!GetLengthPrefixed(data, &family_name)) {
      return cursor.Corrupt("bad hash family");
    }
    // The width the builder accepts: the hashes and the super-key store
    // assume whole 64-bit words.
    uint64_t hash_bits = 0;
    if (!GetVarint64(data, &hash_bits) || hash_bits == 0 ||
        hash_bits % 64 != 0 || hash_bits > BitVector::kMaxBits) {
      return cursor.Corrupt("bad hash width");
    }
    if (data->empty()) return cursor.Corrupt("truncated stats flag");
    const uint8_t used_stats = static_cast<uint8_t>((*data)[0]);
    data->remove_prefix(1);
    // Shared CorpusStats codec (storage/corpus.h) — the corpus v2 header
    // persists the same block.
    if (!ParseCorpusStats(data, &impl->stats)) {
      return cursor.Corrupt("bad corpus stats");
    }

    Result<HashFamily> family = ParseHashFamily(family_name);
    if (!family.ok()) return cursor.Corrupt(family.status().message());
    impl->family = *family;
    std::unique_ptr<RowHashFunction> hash =
        MakeRowHash(impl->family, static_cast<size_t>(hash_bits),
                    used_stats ? &impl->stats : nullptr);
    if (hash == nullptr) return cursor.Corrupt("bad hash configuration");
    impl->owned = std::make_unique<InvertedIndex>(std::move(hash));
    impl->target = impl->owned.get();

    // Shape: per-table row counts and column bounds, ahead of the bulky
    // sections so loading can cross-validate against a corpus before
    // postings exist in memory. The table count is bounds-checked against
    // the bytes left (>= 2 bytes per table) so a corrupt value fails the
    // parse instead of driving a huge allocation.
    cursor.section = "shape";
    uint64_t num_tables = 0;
    if (!GetVarint64(data, &num_tables) || num_tables > data->size() / 2) {
      return cursor.Corrupt("bad table count");
    }
    impl->rows_per_table.reserve(static_cast<size_t>(num_tables));
    impl->column_bounds.reserve(static_cast<size_t>(num_tables));
    for (uint64_t t = 0; t < num_tables; ++t) {
      uint64_t rows = 0;
      uint64_t columns = 0;
      if (!GetVarint64(data, &rows) || !GetVarint64(data, &columns)) {
        return cursor.Corrupt("truncated table shape");
      }
      if (rows > kMaxIdBound || columns > kMaxIdBound) {
        return cursor.Corrupt("table " + std::to_string(t) +
                              " shape exceeds the 32-bit id range");
      }
      impl->rows_per_table.push_back(rows);
      impl->column_bounds.push_back(columns);
    }

    // Dictionary, in id order.
    cursor.section = "dictionary";
    // Each value costs >= 1 byte (its length varint), which bounds the
    // presize; a repeated value comes back with an earlier id.
    if (!GetVarint64(data, &impl->dict_size) ||
        impl->dict_size > data->size() ||
        impl->dict_size > ValueDictionary::kMaxSize) {
      return cursor.Corrupt("bad dictionary size");
    }
    ValueDictionary& dictionary = impl->target->dictionary_;
    dictionary.Reserve(static_cast<size_t>(impl->dict_size));
    for (uint64_t i = 0; i < impl->dict_size; ++i) {
      std::string_view value;
      if (!GetLengthPrefixed(data, &value)) {
        return cursor.Corrupt("truncated dictionary");
      }
      if (dictionary.GetOrAdd(value) != i) {
        return cursor.Corrupt("dictionary id skew");
      }
    }

    // Posting region header: entry count + byte extent, so the contiguous
    // region can be bounds-checked (and the super keys located) without
    // parsing a single list.
    cursor.section = "postings";
    if (!GetVarint64(data, &impl->total_entries)) {
      return cursor.Corrupt("bad posting entry count");
    }
    uint64_t posting_bytes = 0;
    if (!GetVarint64(data, &posting_bytes)) {
      return cursor.Corrupt("bad posting region size");
    }
    if (posting_bytes > data->size()) {
      return cursor.Corrupt("posting region extends past the end of the "
                            "image (" +
                            std::to_string(posting_bytes) +
                            " bytes declared, " +
                            std::to_string(data->size()) + " available)");
    }
    // One list per dictionary value, each >= 1 byte (its length varint),
    // and every entry >= 3 bytes (three varints): corrupt counts fail here
    // instead of driving a huge arena allocation.
    if (impl->dict_size > posting_bytes) {
      return cursor.Corrupt("posting list count exceeds the region size");
    }
    if (impl->total_entries > (posting_bytes - impl->dict_size) / 3) {
      return cursor.Corrupt("posting entry count exceeds the region size");
    }
    impl->posting_region = data->substr(0, posting_bytes);
    impl->superkey_region = data->substr(posting_bytes);
    return Status::OK();
  }

  // Posting lists + super keys, streamed from the (usually mmap'd) image.
  static Status ParsePhase2(PhasedIndexLoad::Impl* impl) {
    InvertedIndex* index = impl->target;
    ParseCursor cursor{impl->posting_region, impl->cursor.base,
                       impl->cursor.image_size, "index", "postings"};
    std::string_view* data = &cursor.remaining;
    // Errors about an entry name the offset where the entry starts.
    const auto corrupt_at = [&cursor](std::string_view at,
                                      const std::string& what) {
      ParseCursor entry_cursor = cursor;
      entry_cursor.remaining = at;
      return entry_cursor.Corrupt(what);
    };
    const std::vector<uint64_t>& rows = impl->rows_per_table;
    const std::vector<uint64_t>& columns = impl->column_bounds;
    const uint64_t num_tables = rows.size();
    PostingArena& arena = index->arena_;
    arena.offsets.assign(static_cast<size_t>(impl->dict_size) + 1, 0);
    arena.entries.reserve(static_cast<size_t>(impl->total_entries));
    for (uint64_t id = 0; id < impl->dict_size; ++id) {
      const uint64_t filled = arena.entries.size();
      arena.offsets[id] = filled;
      uint64_t length = 0;
      if (!GetVarint64(data, &length)) {
        return cursor.Corrupt("bad posting list length");
      }
      if (length > impl->total_entries - filled) {
        return cursor.Corrupt("posting list " + std::to_string(id) +
                              " overruns the declared " +
                              std::to_string(impl->total_entries) +
                              " entries");
      }
      uint64_t t = 0;
      uint64_t r = 0;
      int64_t last_column = -1;  // within the current (table, row)
      for (uint64_t e = 0; e < length; ++e) {
        const std::string_view at = *data;
        uint64_t table_delta = 0, row_code = 0, c = 0;
        if (!GetVarint64(data, &table_delta) || !GetVarint64(data, &row_code) ||
            !GetVarint64(data, &c)) {
          return corrupt_at(at, "truncated posting entry");
        }
        if (table_delta >= num_tables - t) {
          return corrupt_at(
              at, "posting entry names table " +
                      std::to_string(t + table_delta) +
                      " but the shape header declares " +
                      std::to_string(num_tables) + " tables");
        }
        if (table_delta > 0) {
          t += table_delta;
          r = 0;
          last_column = -1;
        }
        if (row_code >= rows[t] - r) {
          return corrupt_at(
              at, "posting entry names row " + std::to_string(r + row_code) +
                      " of table " + std::to_string(t) +
                      ", which the shape header gives " +
                      std::to_string(rows[t]) + " rows");
        }
        if (row_code > 0) {
          r += row_code;
          last_column = -1;
        }
        if (c >= columns[t]) {
          return corrupt_at(
              at, "posting entry names column " + std::to_string(c) +
                      " of table " + std::to_string(t) +
                      ", past its column bound " +
                      std::to_string(columns[t]));
        }
        if (static_cast<int64_t>(c) <= last_column) {
          return corrupt_at(at, "posting list " + std::to_string(id) +
                                    " is not strictly ascending at entry " +
                                    std::to_string(e));
        }
        last_column = static_cast<int64_t>(c);
        arena.entries.push_back(PostingEntry{static_cast<TableId>(t),
                                             static_cast<ColumnId>(c),
                                             static_cast<RowId>(r)});
      }
    }
    const uint64_t filled = arena.entries.size();
    arena.offsets[impl->dict_size] = filled;
    if (filled != impl->total_entries) {
      return cursor.Corrupt("posting entry count skew: the lists hold " +
                            std::to_string(filled) + " entries, " +
                            std::to_string(impl->total_entries) +
                            " declared");
    }
    if (!data->empty()) {
      return cursor.Corrupt("posting region size skew: " +
                            std::to_string(data->size()) + " bytes left over");
    }
    index->num_posting_entries_ = filled;

    // Super keys.
    cursor = ParseCursor{impl->superkey_region, impl->cursor.base,
                         impl->cursor.image_size, "index", "super-key"};
    const size_t section_start = cursor.offset();
    data = &cursor.remaining;
    auto store = SuperKeyStore::ParseFrom(data);
    if (!store.ok()) {
      // ParseFrom leaves the cursor unspecified on failure; report the
      // section start instead of a bogus mid-parse offset.
      return Status::Corruption(
          "index: " + store.status().message() +
          " (super-key section starting at byte offset " +
          std::to_string(section_start) + " of " +
          std::to_string(cursor.image_size) + ")");
    }
    if (store->hash_bits() != index->hash_bits()) {
      return cursor.Corrupt("super key width mismatch");
    }
    // The shape header is what phase 1 validated the corpus against; skew
    // between it and the streamed store must fail the readiness check —
    // never produce a silently wrong index.
    if (store->num_tables() != impl->rows_per_table.size()) {
      return cursor.Corrupt(
          "super key store covers " + std::to_string(store->num_tables()) +
          " tables but the shape header declares " +
          std::to_string(impl->rows_per_table.size()));
    }
    for (size_t t = 0; t < impl->rows_per_table.size(); ++t) {
      if (store->NumRows(t) != impl->rows_per_table[t]) {
        return cursor.Corrupt(
            "super key table " + std::to_string(t) + " has " +
            std::to_string(store->NumRows(t)) +
            " rows but the shape header declares " +
            std::to_string(impl->rows_per_table[t]));
      }
    }
    if (!data->empty()) {
      return cursor.Corrupt(std::to_string(data->size()) +
                            " trailing bytes after the super keys");
    }
    index->superkeys_ = std::move(*store);
    return Status::OK();
  }

  // Blocking both-phase parse over a borrowed buffer (DeserializeIndex).
  static Result<std::unique_ptr<InvertedIndex>> LoadAll(std::string_view data,
                                                        HashFamily* family,
                                                        CorpusStats* stats) {
    PhasedIndexLoad::Impl impl;
    impl.cursor =
        ParseCursor{data, data.data(), data.size(), "index", "header"};
    MATE_RETURN_IF_ERROR(ParsePhase1(&impl));
    if (family != nullptr) *family = impl.family;
    if (stats != nullptr) *stats = impl.stats;
    MATE_RETURN_IF_ERROR(ParsePhase2(&impl));
    return std::move(impl.owned);
  }
};

PhasedIndexLoad::PhasedIndexLoad() : impl_(std::make_unique<Impl>()) {}
PhasedIndexLoad::~PhasedIndexLoad() = default;
PhasedIndexLoad::PhasedIndexLoad(PhasedIndexLoad&&) noexcept = default;
PhasedIndexLoad& PhasedIndexLoad::operator=(PhasedIndexLoad&&) noexcept =
    default;

Result<PhasedIndexLoad> PhasedIndexLoad::Begin(const std::string& path) {
  PhasedIndexLoad load;
  MATE_ASSIGN_OR_RETURN(load.impl_->file, MappedFile::Open(path));
  const std::string_view image = load.impl_->file.view();
  load.impl_->cursor = ParseCursor{image, image.data(), image.size(),
                                   "index", "header"};
  MATE_RETURN_IF_ERROR(IndexLoader::ParsePhase1(load.impl_.get()));
  return load;
}

HashFamily PhasedIndexLoad::hash_family() const { return impl_->family; }
const CorpusStats& PhasedIndexLoad::corpus_stats() const {
  return impl_->stats;
}
const std::vector<uint64_t>& PhasedIndexLoad::rows_per_table() const {
  return impl_->rows_per_table;
}
const std::vector<uint64_t>& PhasedIndexLoad::column_bounds() const {
  return impl_->column_bounds;
}
size_t PhasedIndexLoad::posting_region_bytes() const {
  return impl_->posting_region.size();
}
bool PhasedIndexLoad::is_mapped() const { return impl_->file.is_mapped(); }

std::unique_ptr<InvertedIndex> PhasedIndexLoad::TakeIndex() {
  return std::move(impl_->owned);
}

Status PhasedIndexLoad::Finish() {
  Impl* impl = impl_.get();
  if (impl->finished) {
    return Status::Internal("PhasedIndexLoad::Finish called twice");
  }
  impl->finished = true;
  const Status status = IndexLoader::ParsePhase2(impl);
  // The parsed structures own everything now; unpin the image.
  impl->posting_region = {};
  impl->superkey_region = {};
  impl->cursor = ParseCursor{};
  impl->file.Release();
  return status;
}

void SerializeIndex(const InvertedIndex& index, HashFamily family,
                    const CorpusStats& stats, std::string* out) {
  out->clear();
  out->append(kMagic, kMagicLen);
  PutFixed32(out, kVersion);
  PutLengthPrefixed(out, HashFamilyName(family));
  PutVarint64(out, index.hash_bits());
  // Heuristic: stats were "used" iff they are non-empty.
  out->push_back(stats.num_cells > 0 ? '\x01' : '\x00');
  AppendCorpusStats(out, stats);

  // One pass over the lists sizes the posting region, counts its entries
  // and finds each table's column bound, so the region streams straight
  // into `out` without a second full-size buffer.
  const std::vector<uint64_t> rows_per_table = index.superkeys().RowCounts();
  std::vector<uint64_t> column_bounds(rows_per_table.size(), 0);
  const size_t num_lists = index.NumPostingLists();
  uint64_t total_entries = 0;
  uint64_t region_bytes = 0;
  for (ValueId id = 0; id < num_lists; ++id) {
    const PostingSpan list = index.List(id);
    total_entries += list.size();
    region_bytes += VarintLength(list.size());
    ForEachCodedEntry(list, [&](uint64_t table_delta, uint64_t row_code,
                                const PostingEntry& entry) {
      region_bytes += VarintLength(table_delta) + VarintLength(row_code) +
                      VarintLength(entry.column_id);
      uint64_t& bound = column_bounds[entry.table_id];
      bound = std::max<uint64_t>(bound, uint64_t{entry.column_id} + 1);
    });
  }

  PutVarint64(out, rows_per_table.size());
  for (size_t t = 0; t < rows_per_table.size(); ++t) {
    PutVarint64(out, rows_per_table[t]);
    PutVarint64(out, column_bounds[t]);
  }

  const ValueDictionary& dict = index.dictionary();
  PutVarint64(out, dict.size());
  for (ValueId id = 0; id < dict.size(); ++id) {
    PutLengthPrefixed(out, dict.ValueOf(id));
  }

  PutVarint64(out, total_entries);
  PutVarint64(out, region_bytes);
  const size_t region_start = out->size();
  for (ValueId id = 0; id < num_lists; ++id) {
    const PostingSpan list = index.List(id);
    PutVarint64(out, list.size());
    ForEachCodedEntry(list, [out](uint64_t table_delta, uint64_t row_code,
                                  const PostingEntry& entry) {
      PutVarint64(out, table_delta);
      PutVarint64(out, row_code);
      PutVarint32(out, entry.column_id);
    });
  }
  assert(out->size() - region_start == region_bytes);
  (void)region_start;

  index.superkeys().AppendToString(out);
}

Result<std::unique_ptr<InvertedIndex>> DeserializeIndex(
    std::string_view data, HashFamily* family, CorpusStats* stats) {
  return IndexLoader::LoadAll(data, family, stats);
}

Status SaveIndex(const InvertedIndex& index, HashFamily family,
                 const CorpusStats& stats, const std::string& path) {
  std::string buffer;
  SerializeIndex(index, family, stats, &buffer);
  return WriteFileAtomic(path, buffer);
}

Result<std::unique_ptr<InvertedIndex>> LoadIndex(const std::string& path,
                                                 HashFamily* family,
                                                 CorpusStats* stats) {
  MATE_ASSIGN_OR_RETURN(PhasedIndexLoad load, PhasedIndexLoad::Begin(path));
  if (family != nullptr) *family = load.hash_family();
  if (stats != nullptr) *stats = load.corpus_stats();
  std::unique_ptr<InvertedIndex> index = load.TakeIndex();
  MATE_RETURN_IF_ERROR(load.Finish());
  return index;
}

}  // namespace mate
