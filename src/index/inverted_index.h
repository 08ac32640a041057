// The MATE index (§5): the classic single-attribute inverted index
// (value -> posting list of (table, column, row)) extended with one super
// key per table row. Supports the full §5.4 maintenance surface: table/row
// inserts, column adds, cell updates, and deletes.
//
// Postings live in one CSR arena. The value dictionary hands out dense
// ids, and the list of value id v is entries[offsets[v], offsets[v + 1])
// of a single PostingEntry array, each list sorted by (table, row,
// column). The builder and the loader size the arena once. §5.4
// maintenance edits a list by first moving it into a small overflow map
// keyed by value id, which Lookup checks before the arena; maintenance
// requires an idle index, so no reader sees a list move.
//
// A row's super key is the OR of the signatures of its values, and its
// values are exactly the lists that post the row. So RebuildSuperKeys
// hashes each distinct value once and ORs the signature into every
// (table, row) its list names: re-keying reads no corpus cells.
//
// The index stores only normalized values; callers normalize with
// NormalizeValue before probing (query-side helpers do this already).

#ifndef MATE_INDEX_INVERTED_INDEX_H_
#define MATE_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hash/hash_function.h"
#include "index/posting.h"
#include "index/superkey_store.h"
#include "storage/corpus.h"
#include "storage/value_dictionary.h"
#include "util/page_allocator.h"

namespace mate {

/// Postings in CSR form: the list of value id v is
/// entries[offsets[v], offsets[v + 1]), sorted by (table, row, column).
/// `offsets` holds one more element than there are lists. Both arrays take
/// their pages straight from the OS (util/page_allocator.h).
struct PostingArena {
  PageVector<uint64_t> offsets;
  PageVector<PostingEntry> entries;
};

class InvertedIndex {
 public:
  /// An empty index with a given super-key hash; §5.4 maintenance grows
  /// it. Use BuildIndex (index_builder.h) to build one from a corpus.
  explicit InvertedIndex(std::unique_ptr<RowHashFunction> hash);

  /// Adopts bulk-built postings: `postings` holds one list per value of
  /// `dictionary`, in id order. The super-key store takes the shape
  /// `rows_per_table` with every key zero until RebuildSuperKeys.
  InvertedIndex(std::unique_ptr<RowHashFunction> hash,
                ValueDictionary dictionary, PostingArena postings,
                const std::vector<uint64_t>& rows_per_table);

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Posting list of a normalized value; empty if the value has none.
  PostingSpan Lookup(std::string_view normalized) const;

  /// Posting list of value id `id` (empty past the dictionary).
  PostingSpan List(ValueId id) const;

  const SuperKeyStore& superkeys() const { return superkeys_; }
  const RowHashFunction& hash() const { return *hash_; }
  size_t hash_bits() const { return hash_->hash_bits(); }

  const ValueDictionary& dictionary() const { return dictionary_; }

  /// Total posting entries across all lists.
  size_t NumPostingEntries() const { return num_posting_entries_; }
  /// One list per dictionary value, in value-id order, counting lists that
  /// maintenance emptied: the count the image stores and the loader reads
  /// back in phase 2.
  size_t NumPostingLists() const { return dictionary_.size(); }

  /// Approximate bytes: postings + dictionary + super keys.
  size_t MemoryBytes() const;
  /// The arena's entries and offsets plus the overflow map's lists.
  size_t PostingBytes() const;
  size_t SuperKeyBytes() const { return superkeys_.MemoryBytes(); }

  /// Swaps in a different super-key hash and recomputes every row's super
  /// key from the posting lists (RebuildSuperKeys). Posting lists and
  /// dictionary are hash-independent and untouched, and no corpus cell is
  /// read. This is how the Table 2/3 hash sweeps re-key one index instead
  /// of rebuilding it per hash function.
  Status ResetHash(std::unique_ptr<RowHashFunction> new_hash,
                   unsigned num_threads = 1);

  /// Recomputes every super key with the current hash, keeping the store's
  /// shape: hashes each distinct value once and ORs its signature into the
  /// rows its list names. `num_threads` workers (0 = hardware concurrency)
  /// split the values; OR is order-independent, so the keys are
  /// bit-identical at every thread count.
  void RebuildSuperKeys(unsigned num_threads = 1);

  // ---- §5.4 index maintenance ---------------------------------------
  // All methods take the corpus in its *post-edit* state unless noted.

  /// Indexes a table just added to the corpus.
  Status InsertTable(const Corpus& corpus, TableId t);

  /// Indexes a row just appended to table `t`.
  Status InsertRow(const Corpus& corpus, TableId t, RowId r);

  /// Indexes a column just appended to table `t` (id = last column): adds
  /// its PL items and ORs its signatures into the existing row super keys.
  Status AddAppendedColumn(const Corpus& corpus, TableId t);

  /// Re-indexes cell (t, r, c) whose previous normalized value was
  /// `old_normalized`; rehashes the row's super key from scratch. A row
  /// tombstoned in the corpus stays unindexed, as a rebuild leaves it: the
  /// old posting goes, no new one is added, and its super key is zero.
  Status UpdateCell(const Corpus& corpus, TableId t, RowId r, ColumnId c,
                    std::string_view old_normalized);

  /// Removes the PL items of row (t, r) and zeroes its super key. The
  /// corpus row may be tombstoned before or after this call (tombstones
  /// keep cells readable).
  Status DeleteRow(const Corpus& corpus, TableId t, RowId r);

  /// Removes all PL items of table `t`.
  Status DeleteTable(const Corpus& corpus, TableId t);

  /// Handles a column drop: `removed_cells` holds the dropped column's cell
  /// text per row, `dropped` its old column id; the corpus table has already
  /// been edited. Later columns' PL items are re-keyed and every row's super
  /// key is rehashed (§5.4: a column delete triggers a table-local rehash).
  Status DropColumn(const Corpus& corpus, TableId t, ColumnId dropped,
                    const std::vector<std::string>& removed_cells);

 private:
  // Adds one posting entry (kept sorted) for an already-normalized value;
  // fails when the value is new and the dictionary is full.
  Status AddPosting(std::string_view normalized, PostingEntry entry);

  // Removes entry from the PL of `normalized` (no-op if absent).
  void RemovePosting(std::string_view normalized, const PostingEntry& entry);

  // The list of `id` in the overflow map, moved there from the arena on
  // its first edit.
  std::vector<PostingEntry>* MutableList(ValueId id);

  // Recomputes the super key of (t, r) from the corpus row.
  void RehashRow(const Corpus& corpus, TableId t, RowId r);

  // ORs the signature of every value in [begin, end) into the rows its list
  // names; `concurrent` when other workers OR into the store meanwhile.
  void OrSignatures(ValueId begin, ValueId end, bool concurrent);

  std::unique_ptr<RowHashFunction> hash_;
  ValueDictionary dictionary_;
  PostingArena arena_;
  std::unordered_map<ValueId, std::vector<PostingEntry>> overflow_;
  SuperKeyStore superkeys_;
  size_t num_posting_entries_ = 0;

  friend class IndexLoader;
};

}  // namespace mate

#endif  // MATE_INDEX_INVERTED_INDEX_H_
