// Index persistence. The on-disk image carries the hash configuration
// (family, width, corpus statistics) so a loaded index reconstructs a
// bit-identical hash function, plus the dictionary, posting lists, and the
// per-row super keys.
//
// Format v3 is the only format; an image of any other version fails every
// loader with kCorruption "unsupported version N (expected 3)". It is laid
// out for phased loading:
//
//   [magic "MATEINDX"] [version u32 = 3]
//   header:     [hash family] [hash bits] [stats-present u8] [CorpusStats]
//   shape:      [num_tables] per table: [rows] [column bound]
//   dictionary: [num_values] per value, in id order: [length-prefixed]
//   postings:   [total entries] [region bytes]
//               per value id, dense: [list length] per entry:
//               [table delta] [row] [column]
//   super keys: SuperKeyStore::AppendToString
//
// The small shape section sits ahead of the bulky data so a loader can
// cross-validate the index against its corpus before postings exist in
// memory. A table's column bound is one past the largest column id it
// posts. The posting region is size-prefixed and contiguous, so its extent
// is bounds-checked, and the super keys located, without parsing a list.
// Lists carry no value id: list i belongs to dictionary value i. Within a
// list, the table id is a delta from the previous entry's, and the row id
// is a delta from the previous entry's within one table, absolute at a
// table change. The total entry count lets phase 2 size the arena once.
// Every decoded entry is checked against the shape: its table below the
// table count, its row below that table's row count, its column below that
// table's column bound, and each list strictly ascending in (table, row,
// column).
//
// Load errors are section- and offset-aware: a truncated or corrupt image
// names the section ("dictionary", "postings", ...) and the byte offset
// where parsing stopped, not just a generic failure.

#ifndef MATE_INDEX_INDEX_IO_H_
#define MATE_INDEX_INDEX_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hash/hash_registry.h"
#include "index/inverted_index.h"
#include "util/status.h"

namespace mate {

/// Serializes `index` into `out` (replacing its contents). `family` and
/// `stats` must be the values the index was built with (BuildIndexWithReport
/// exposes the stats).
void SerializeIndex(const InvertedIndex& index, HashFamily family,
                    const CorpusStats& stats, std::string* out);

/// Parses an index serialized by SerializeIndex (both phases, blocking).
/// When non-null, `family` and `stats` receive the hash configuration
/// stored in the image (what SaveIndex was called with) — Session keeps
/// them so a loaded session can re-save and re-key without rescanning the
/// corpus.
Result<std::unique_ptr<InvertedIndex>> DeserializeIndex(
    std::string_view data, HashFamily* family = nullptr,
    CorpusStats* stats = nullptr);

Status SaveIndex(const InvertedIndex& index, HashFamily family,
                 const CorpusStats& stats, const std::string& path);
Result<std::unique_ptr<InvertedIndex>> LoadIndex(const std::string& path,
                                                 HashFamily* family = nullptr,
                                                 CorpusStats* stats = nullptr);

/// Two-phase index load — the machinery behind Session::Open's phased path:
///
///   Begin  — opens and memory-maps the file (read-copy fallback for inputs
///            that cannot be mapped), then parses the header, corpus stats,
///            shape section, and value dictionary, and bounds-checks the
///            posting region. Everything a serving process needs to
///            validate the index against its corpus and start accepting
///            traffic, without touching the bulky sections.
///   Finish — phase 2: streams the posting lists and super keys into the
///            index (typically on a background thread; pages fault in
///            lazily under the mmap) and releases the mapping. Call exactly
///            once.
///
/// TakeIndex may be called any time after Begin: the returned index has its
/// hash and dictionary populated but MUST NOT be probed until Finish has
/// returned OK (Session gates this behind its readiness latch). The load
/// object keeps a pointer to the taken index, so it must outlive Finish.
class PhasedIndexLoad {
 public:
  static Result<PhasedIndexLoad> Begin(const std::string& path);

  ~PhasedIndexLoad();
  PhasedIndexLoad(PhasedIndexLoad&&) noexcept;
  PhasedIndexLoad& operator=(PhasedIndexLoad&&) noexcept;

  HashFamily hash_family() const;
  const CorpusStats& corpus_stats() const;
  /// Per-table row counts from the shape header; phase-1 corpus/index
  /// cross-validation happens against these, not the super keys.
  const std::vector<uint64_t>& rows_per_table() const;
  /// Per-table column bounds from the shape header (one past the largest
  /// column id the table posts; at most the corpus table's width).
  const std::vector<uint64_t>& column_bounds() const;
  /// Byte size of the contiguous posting region (reporting).
  size_t posting_region_bytes() const;
  /// True when the image is served by an mmap (phase 2 faults pages in
  /// lazily) rather than the read-copy fallback.
  bool is_mapped() const;

  /// Transfers ownership of the index under construction (hash +
  /// dictionary ready; postings/super keys absent until Finish).
  std::unique_ptr<InvertedIndex> TakeIndex();

  /// Phase 2. On failure the index contents are unspecified and must be
  /// discarded (Session surfaces the error from its readiness check).
  Status Finish();

 private:
  friend class IndexLoader;
  PhasedIndexLoad();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mate

#endif  // MATE_INDEX_INDEX_IO_H_
