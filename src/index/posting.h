// Posting-list types for the single-attribute inverted index (Eq. 4):
// a normalized value maps to the (table, column, row) triplets containing it.

#ifndef MATE_INDEX_POSTING_H_
#define MATE_INDEX_POSTING_H_

#include <algorithm>
#include <cstddef>

#include "storage/types.h"

namespace mate {

struct PostingEntry {
  TableId table_id;
  ColumnId column_id;
  RowId row_id;

  bool operator==(const PostingEntry& other) const {
    return table_id == other.table_id && column_id == other.column_id &&
           row_id == other.row_id;
  }
  bool operator<(const PostingEntry& other) const {
    if (table_id != other.table_id) return table_id < other.table_id;
    if (row_id != other.row_id) return row_id < other.row_id;
    return column_id < other.column_id;
  }
};

/// One value's posting list, read-only: its entries sorted by (table, row,
/// column). Empty when the index has no postings for the value. It points
/// into the index (the posting arena, or the overflow map for a list that
/// §5.4 maintenance edited) and stays valid until the index is edited.
class PostingSpan {
 public:
  PostingSpan() = default;
  PostingSpan(const PostingEntry* data, size_t size)
      : data_(data), size_(size) {}

  const PostingEntry* begin() const { return data_; }
  const PostingEntry* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const PostingEntry& operator[](size_t i) const { return data_[i]; }
  const PostingEntry& front() const { return data_[0]; }
  const PostingEntry& back() const { return data_[size_ - 1]; }

  friend bool operator==(PostingSpan a, PostingSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const PostingEntry* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace mate

#endif  // MATE_INDEX_POSTING_H_
