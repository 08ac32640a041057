// Per-row super-key storage (§5.1). The paper discusses two layouts: super
// keys duplicated per PL item, or the space-efficient per-row layout (one
// super key per table row, joined with the PLs at probe time). This store
// implements the per-row layout: a flat word array per table, indexed by
// row id, so a probe is one pointer computation. The executor's row loop
// reads a row's key in place through RowWords and tests it with its own
// word loop against every combo key of the row's init value. Covers is the
// single-probe form: it runs BitVector's containment loop (CoversWords), so
// tests can count filter survivors without sharing the row loop's test.

#ifndef MATE_INDEX_SUPERKEY_STORE_H_
#define MATE_INDEX_SUPERKEY_STORE_H_

#include <cstdint>
#include <vector>

#include "storage/types.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace mate {

class SuperKeyStore {
 public:
  /// `hash_bits` must be a positive multiple of 64 (the store keeps whole
  /// words per row).
  explicit SuperKeyStore(size_t hash_bits);

  size_t hash_bits() const { return hash_bits_; }
  size_t words_per_key() const { return words_per_key_; }
  size_t num_tables() const { return tables_.size(); }

  /// Ensures table `t` exists with room for `num_rows` rows (zero keys).
  void EnsureTable(TableId t, size_t num_rows);

  /// Appends one row slot to table `t`; returns its row id.
  RowId AppendRow(TableId t);

  /// Overwrites the super key of (t, r). Precondition: key width matches.
  void Set(TableId t, RowId r, const BitVector& key);

  /// ORs `signature` into the stored key of (t, r) — the §5.4 column-add
  /// update path.
  void OrInto(TableId t, RowId r, const BitVector& signature);

  /// OrInto for writers that share rows: each word is ORed atomically, and
  /// OR is order-independent, so the keys do not depend on the schedule.
  void AtomicOrInto(TableId t, RowId r, const BitVector& signature);

  /// Zeroes the key of (t, r) (used before a §5.4 rehash).
  void Reset(TableId t, RowId r);

  /// Zeroes every key and sets the key width to `hash_bits` (same
  /// precondition as the constructor), keeping every table's row count.
  /// Re-keying starts here; the storage is reused in place.
  void ClearKeys(size_t hash_bits);

  /// Borrowed pointer to the words of (t, r)'s key; valid until the table
  /// is resized.
  const uint64_t* RowWords(TableId t, RowId r) const {
    return tables_[t].data() + static_cast<size_t>(r) * words_per_key_;
  }

  /// Copies the key of (t, r) into a BitVector.
  BitVector Get(TableId t, RowId r) const;

  /// True iff every set bit of `query` is set in the stored key of (t, r) —
  /// the row-filter probe of §6.3, run by CoversWords (util/bitvector.h)
  /// over the query's raw word pointer.
  bool Covers(TableId t, RowId r, const BitVector& query) const {
    return CoversWords(query.words(), RowWords(t, r), words_per_key_);
  }

  size_t NumRows(TableId t) const {
    return tables_[t].size() / words_per_key_;
  }

  /// Per-table row counts — the shape the serialized index advertises in
  /// its header so phase-1 loading can cross-validate against the corpus
  /// before the super keys themselves are streamed in.
  std::vector<uint64_t> RowCounts() const;

  /// Total bytes of key payload (for the §7.1 index-size stats).
  size_t MemoryBytes() const;

  /// Serialization for index_io.
  void AppendToString(std::string* out) const;
  static Result<SuperKeyStore> ParseFrom(std::string_view* input);

 private:
  size_t hash_bits_;
  size_t words_per_key_;
  std::vector<std::vector<uint64_t>> tables_;
};

}  // namespace mate

#endif  // MATE_INDEX_SUPERKEY_STORE_H_
