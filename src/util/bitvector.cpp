#include "util/bitvector.h"

#include <algorithm>

#include "util/coding.h"

namespace mate {

namespace {

constexpr size_t kWordBits = BitVector::kWordBits;

// The 64 bits of `words` starting at bit `pos`; bits past the array read 0.
uint64_t ReadBits64(const uint64_t* words, size_t num_words, size_t pos) {
  const size_t w = pos / kWordBits;
  const size_t shift = pos % kWordBits;
  if (w >= num_words) return 0;
  uint64_t bits = words[w] >> shift;
  if (shift != 0 && w + 1 < num_words) {
    bits |= words[w + 1] << (kWordBits - shift);
  }
  return bits;
}

// Overwrites the `n` (1..64) bits of `words` starting at bit `pos` with the
// low `n` bits of `bits`.
void WriteBits(uint64_t* words, size_t pos, uint64_t bits, size_t n) {
  const uint64_t mask = n == kWordBits ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  bits &= mask;
  const size_t w = pos / kWordBits;
  const size_t shift = pos % kWordBits;
  words[w] = (words[w] & ~(mask << shift)) | (bits << shift);
  if (shift != 0 && shift + n > kWordBits) {
    const size_t spill = kWordBits - shift;
    words[w + 1] = (words[w + 1] & ~(mask >> spill)) | (bits >> spill);
  }
}

// Copies `n` bits from `src` at `from` to `dst` at `to`, a word at a time.
void CopyBits(const uint64_t* src, size_t src_words, size_t from, size_t n,
              uint64_t* dst, size_t to) {
  for (size_t done = 0; done < n; done += kWordBits) {
    const size_t chunk = std::min(kWordBits, n - done);
    WriteBits(dst, to + done, ReadBits64(src, src_words, from + done), chunk);
  }
}

}  // namespace

void BitVector::RotateRangeLeft(size_t start, size_t len, size_t k) {
  assert(start + len <= num_bits_);
  if (len == 0) return;
  k %= len;
  if (k == 0) return;

  // Offsets [k, len) move down to [0, len - k) and [0, k) wrap around to
  // [len - k, len), each copied a word at a time from a snapshot.
  const std::array<uint64_t, kMaxWords> src = words_;
  CopyBits(src.data(), num_words_, start + k, len - k, words_.data(), start);
  CopyBits(src.data(), num_words_, start, k, words_.data(), start + len - k);
}

std::string BitVector::ToBinaryString() const {
  std::string out;
  out.reserve(num_bits_);
  for (size_t i = 0; i < num_bits_; ++i) out.push_back(TestBit(i) ? '1' : '0');
  return out;
}

std::string BitVector::ToHexString() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(num_words_ * 16);
  for (size_t w = 0; w < num_words_; ++w) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kHex[(words_[w] >> shift) & 0xF]);
    }
  }
  return out;
}

Result<BitVector> BitVector::FromBinaryString(std::string_view bits) {
  if (bits.size() > kMaxBits) {
    return Status::InvalidArgument("bit string longer than kMaxBits");
  }
  BitVector v(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      v.SetBit(i);
    } else if (bits[i] != '0') {
      return Status::InvalidArgument("bit string may contain only 0 and 1");
    }
  }
  return v;
}

void BitVector::AppendToString(std::string* out) const {
  PutVarint64(out, num_bits_);
  for (size_t w = 0; w < num_words_; ++w) PutFixed64(out, words_[w]);
}

Result<BitVector> BitVector::ParseFrom(std::string_view* input) {
  uint64_t num_bits = 0;
  if (!GetVarint64(input, &num_bits)) {
    return Status::Corruption("BitVector: bad width varint");
  }
  if (num_bits > kMaxBits) {
    return Status::Corruption("BitVector: width exceeds kMaxBits");
  }
  BitVector v(static_cast<size_t>(num_bits));
  for (size_t w = 0; w < v.num_words(); ++w) {
    uint64_t word = 0;
    if (!GetFixed64(input, &word)) {
      return Status::Corruption("BitVector: truncated words");
    }
    v.words_[w] = word;
  }
  v.MaskTail();
  return v;
}

}  // namespace mate
