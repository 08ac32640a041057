#include "index/superkey_store.h"

#include <atomic>
#include <cassert>

#include "util/coding.h"

namespace mate {

SuperKeyStore::SuperKeyStore(size_t hash_bits)
    : hash_bits_(hash_bits), words_per_key_(hash_bits / 64) {
  assert(hash_bits > 0 && hash_bits % 64 == 0);
}

void SuperKeyStore::EnsureTable(TableId t, size_t num_rows) {
  if (tables_.size() <= t) tables_.resize(t + 1);
  if (tables_[t].size() < num_rows * words_per_key_) {
    tables_[t].resize(num_rows * words_per_key_, 0);
  }
}

RowId SuperKeyStore::AppendRow(TableId t) {
  if (tables_.size() <= t) tables_.resize(t + 1);
  RowId r = static_cast<RowId>(tables_[t].size() / words_per_key_);
  tables_[t].resize(tables_[t].size() + words_per_key_, 0);
  return r;
}

void SuperKeyStore::Set(TableId t, RowId r, const BitVector& key) {
  assert(key.num_bits() == hash_bits_);
  uint64_t* row = tables_[t].data() + static_cast<size_t>(r) * words_per_key_;
  for (size_t w = 0; w < words_per_key_; ++w) row[w] = key.word(w);
}

void SuperKeyStore::OrInto(TableId t, RowId r, const BitVector& signature) {
  assert(signature.num_bits() == hash_bits_);
  uint64_t* row = tables_[t].data() + static_cast<size_t>(r) * words_per_key_;
  for (size_t w = 0; w < words_per_key_; ++w) row[w] |= signature.word(w);
}

void SuperKeyStore::AtomicOrInto(TableId t, RowId r,
                                 const BitVector& signature) {
  assert(signature.num_bits() == hash_bits_);
  uint64_t* row = tables_[t].data() + static_cast<size_t>(r) * words_per_key_;
  for (size_t w = 0; w < words_per_key_; ++w) {
    std::atomic_ref<uint64_t>(row[w]).fetch_or(signature.word(w),
                                               std::memory_order_relaxed);
  }
}

void SuperKeyStore::Reset(TableId t, RowId r) {
  uint64_t* row = tables_[t].data() + static_cast<size_t>(r) * words_per_key_;
  for (size_t w = 0; w < words_per_key_; ++w) row[w] = 0;
}

void SuperKeyStore::ClearKeys(size_t hash_bits) {
  assert(hash_bits > 0 && hash_bits % 64 == 0);
  const size_t words_per_key = hash_bits / 64;
  for (std::vector<uint64_t>& table : tables_) {
    table.assign(table.size() / words_per_key_ * words_per_key, 0);
  }
  hash_bits_ = hash_bits;
  words_per_key_ = words_per_key;
}

BitVector SuperKeyStore::Get(TableId t, RowId r) const {
  BitVector key(hash_bits_);
  const uint64_t* row = RowWords(t, r);
  for (size_t w = 0; w < words_per_key_; ++w) key.set_word(w, row[w]);
  return key;
}

std::vector<uint64_t> SuperKeyStore::RowCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(tables_.size());
  for (const auto& table : tables_) {
    counts.push_back(table.size() / words_per_key_);
  }
  return counts;
}

size_t SuperKeyStore::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& table : tables_) bytes += table.size() * sizeof(uint64_t);
  return bytes;
}

void SuperKeyStore::AppendToString(std::string* out) const {
  PutVarint64(out, hash_bits_);
  PutVarint64(out, tables_.size());
  for (const auto& table : tables_) {
    PutVarint64(out, table.size());
    for (uint64_t word : table) PutFixed64(out, word);
  }
}

Result<SuperKeyStore> SuperKeyStore::ParseFrom(std::string_view* input) {
  uint64_t hash_bits = 0;
  if (!GetVarint64(input, &hash_bits) || hash_bits == 0 ||
      hash_bits % 64 != 0 || hash_bits > BitVector::kMaxBits) {
    return Status::Corruption("superkey store: bad hash width");
  }
  uint64_t num_tables = 0;
  // Size bounds before any resize: a flipped byte must fail the parse, not
  // drive a multi-exabyte allocation (each table costs >= 1 byte, each word
  // exactly 8).
  if (!GetVarint64(input, &num_tables) || num_tables > input->size()) {
    return Status::Corruption("superkey store: bad table count");
  }
  SuperKeyStore store(static_cast<size_t>(hash_bits));
  store.tables_.resize(num_tables);
  for (uint64_t t = 0; t < num_tables; ++t) {
    uint64_t num_words = 0;
    if (!GetVarint64(input, &num_words) || num_words > input->size() / 8) {
      return Status::Corruption("superkey store: bad word count");
    }
    if (num_words % store.words_per_key_ != 0) {
      return Status::Corruption("superkey store: ragged table");
    }
    store.tables_[t].resize(num_words);
    for (uint64_t w = 0; w < num_words; ++w) {
      if (!GetFixed64(input, &store.tables_[t][w])) {
        return Status::Corruption("superkey store: truncated words");
      }
    }
  }
  return store;
}

}  // namespace mate
