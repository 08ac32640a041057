// Fixed-width bit array used for XASH signatures and super keys (§5 of the
// paper). Bit index 0 is the paper's "left-most" bit; XASH places the length
// segment there so that the word-ascending subset check realizes the paper's
// length short-circuit for free.
//
// Storage is inline (no heap): at most kMaxBits bits. Widths need not be a
// multiple of 64; bits beyond num_bits() are kept at zero as an invariant.

#ifndef MATE_UTIL_BITVECTOR_H_
#define MATE_UTIL_BITVECTOR_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace mate {

/// True iff (q & ~row) == 0 over words [0, n) — the super-key masking test
/// of §6.3. Walks words from word 0 (the paper's left-most segment) upward
/// and exits on the first word with a miss, so the XASH length segment
/// short-circuits first. BitVector::IsSubsetOf and SuperKeyStore::Covers
/// both run this loop.
inline bool CoversWords(const uint64_t* q, const uint64_t* row, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if ((q[w] & ~row[w]) != 0) return false;
  }
  return true;
}

class BitVector {
 public:
  static constexpr size_t kMaxBits = 512;
  static constexpr size_t kWordBits = 64;
  static constexpr size_t kMaxWords = kMaxBits / kWordBits;

  /// An empty (0-bit) vector; Resize() before use.
  BitVector() = default;

  /// A zeroed vector of `num_bits` bits. Precondition: num_bits <= kMaxBits.
  explicit BitVector(size_t num_bits) { Resize(num_bits); }

  /// Resets to `num_bits` zeroed bits.
  void Resize(size_t num_bits) {
    assert(num_bits <= kMaxBits);
    num_bits_ = num_bits;
    num_words_ = (num_bits + kWordBits - 1) / kWordBits;
    words_.fill(0);
  }

  /// Sets all bits to zero, keeping the width.
  void Clear() { words_.fill(0); }

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return num_words_; }
  bool empty() const { return num_bits_ == 0; }

  void SetBit(size_t i) {
    assert(i < num_bits_);
    words_[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
  }

  void ClearBit(size_t i) {
    assert(i < num_bits_);
    words_[i / kWordBits] &= ~(uint64_t{1} << (i % kWordBits));
  }

  bool TestBit(size_t i) const {
    assert(i < num_bits_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }

  /// this |= other. Precondition: same width.
  void OrWith(const BitVector& other) {
    assert(num_bits_ == other.num_bits_);
    for (size_t w = 0; w < num_words_; ++w) words_[w] |= other.words_[w];
  }

  /// this &= other. Precondition: same width.
  void AndWith(const BitVector& other) {
    assert(num_bits_ == other.num_bits_);
    for (size_t w = 0; w < num_words_; ++w) words_[w] &= other.words_[w];
  }

  /// this ^= other. Precondition: same width.
  void XorWith(const BitVector& other) {
    assert(num_bits_ == other.num_bits_);
    for (size_t w = 0; w < num_words_; ++w) words_[w] ^= other.words_[w];
  }

  /// True iff every 1-bit of *this is also set in `other` — the super-key
  /// masking test of §6.3 ((q | sk) == sk), run by CoversWords.
  bool IsSubsetOf(const BitVector& other) const {
    assert(num_bits_ == other.num_bits_);
    return CoversWords(words_.data(), other.words_.data(), num_words_);
  }

  /// True iff no bit is set.
  bool IsZero() const {
    for (size_t w = 0; w < num_words_; ++w) {
      if (words_[w] != 0) return false;
    }
    return true;
  }

  /// Number of set bits.
  size_t CountOnes() const {
    size_t total = 0;
    for (size_t w = 0; w < num_words_; ++w) {
      total += static_cast<size_t>(__builtin_popcountll(words_[w]));
    }
    return total;
  }

  /// Rotates the bit range [start, start+len) left by `k` positions, in the
  /// paper's orientation (bit `start` is the left edge): the bit previously
  /// at offset (i + k) mod len moves to offset i. Matches the §5.3.5
  /// example: rotating "01100101" left by 3 yields "00101011". Bits outside
  /// the range are untouched.
  void RotateRangeLeft(size_t start, size_t len, size_t k);

  /// Raw word access (word 0 holds bits [0, 64)).
  uint64_t word(size_t w) const {
    assert(w < num_words_);
    return words_[w];
  }
  void set_word(size_t w, uint64_t value) {
    assert(w < num_words_);
    words_[w] = value;
    MaskTail();
  }
  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }

  bool operator==(const BitVector& other) const {
    if (num_bits_ != other.num_bits_) return false;
    for (size_t w = 0; w < num_words_; ++w) {
      if (words_[w] != other.words_[w]) return false;
    }
    return true;
  }
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// Binary string, left-most bit (index 0) first, e.g. "01100101".
  std::string ToBinaryString() const;

  /// Lowercase hex of the words in little-endian word order.
  std::string ToHexString() const;

  /// Parses a binary string as produced by ToBinaryString().
  static Result<BitVector> FromBinaryString(std::string_view bits);

  /// Appends width + words to `out` (for index persistence).
  void AppendToString(std::string* out) const;

  /// Parses a vector serialized by AppendToString, advancing `input`.
  static Result<BitVector> ParseFrom(std::string_view* input);

 private:
  // Zeroes any storage bits at positions >= num_bits_.
  void MaskTail() {
    size_t tail = num_bits_ % kWordBits;
    if (tail != 0 && num_words_ > 0) {
      words_[num_words_ - 1] &= (uint64_t{1} << tail) - 1;
    }
  }

  size_t num_bits_ = 0;
  size_t num_words_ = 0;
  std::array<uint64_t, kMaxWords> words_ = {};
};

}  // namespace mate

#endif  // MATE_UTIL_BITVECTOR_H_
