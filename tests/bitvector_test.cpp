#include "util/bitvector.h"

#include <gtest/gtest.h>

#include <array>

#include "util/rng.h"

namespace mate {
namespace {

TEST(BitVectorTest, StartsZeroed) {
  BitVector v(128);
  EXPECT_EQ(v.num_bits(), 128u);
  EXPECT_EQ(v.num_words(), 2u);
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.CountOnes(), 0u);
}

TEST(BitVectorTest, SetTestClearBit) {
  BitVector v(128);
  v.SetBit(0);
  v.SetBit(63);
  v.SetBit(64);
  v.SetBit(127);
  EXPECT_TRUE(v.TestBit(0));
  EXPECT_TRUE(v.TestBit(63));
  EXPECT_TRUE(v.TestBit(64));
  EXPECT_TRUE(v.TestBit(127));
  EXPECT_FALSE(v.TestBit(1));
  EXPECT_EQ(v.CountOnes(), 4u);
  v.ClearBit(63);
  EXPECT_FALSE(v.TestBit(63));
  EXPECT_EQ(v.CountOnes(), 3u);
}

TEST(BitVectorTest, ResizeClearsContent) {
  BitVector v(64);
  v.SetBit(5);
  v.Resize(128);
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.num_bits(), 128u);
}

TEST(BitVectorTest, OrAndXor) {
  BitVector a(128), b(128);
  a.SetBit(1);
  a.SetBit(70);
  b.SetBit(2);
  b.SetBit(70);
  BitVector or_ab = a;
  or_ab.OrWith(b);
  EXPECT_TRUE(or_ab.TestBit(1));
  EXPECT_TRUE(or_ab.TestBit(2));
  EXPECT_TRUE(or_ab.TestBit(70));
  EXPECT_EQ(or_ab.CountOnes(), 3u);

  BitVector and_ab = a;
  and_ab.AndWith(b);
  EXPECT_EQ(and_ab.CountOnes(), 1u);
  EXPECT_TRUE(and_ab.TestBit(70));

  BitVector xor_ab = a;
  xor_ab.XorWith(b);
  EXPECT_EQ(xor_ab.CountOnes(), 2u);
  EXPECT_FALSE(xor_ab.TestBit(70));
}

TEST(BitVectorTest, SubsetSemantics) {
  BitVector small(128), big(128);
  small.SetBit(3);
  small.SetBit(100);
  big.SetBit(3);
  big.SetBit(100);
  big.SetBit(50);
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  BitVector empty(128);
  EXPECT_TRUE(empty.IsSubsetOf(small));
  EXPECT_FALSE(small.IsSubsetOf(empty));
}

TEST(BitVectorTest, SubsetIsTheSuperKeyMaskEquation) {
  // (q | sk) == sk  <=>  q.IsSubsetOf(sk): the §6.3 membership test.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    BitVector q(128), sk(128);
    for (int i = 0; i < 10; ++i) sk.SetBit(rng.Uniform(128));
    for (int i = 0; i < 4; ++i) q.SetBit(rng.Uniform(128));
    BitVector or_result = q;
    or_result.OrWith(sk);
    EXPECT_EQ(or_result == sk, q.IsSubsetOf(sk));
  }
}

TEST(BitVectorTest, RotateMatchesPaperExample) {
  // §5.3.5: a 3-bit rotation of '01100101' equals '00101011'.
  auto v = BitVector::FromBinaryString("01100101");
  ASSERT_TRUE(v.ok());
  v->RotateRangeLeft(0, 8, 3);
  EXPECT_EQ(v->ToBinaryString(), "00101011");
}

TEST(BitVectorTest, RotateFullCycleIsIdentity) {
  Rng rng(11);
  BitVector v(192);
  for (int i = 0; i < 30; ++i) v.SetBit(rng.Uniform(192));
  BitVector original = v;
  v.RotateRangeLeft(17, 111, 111);  // k == len
  EXPECT_EQ(v, original);
  v.RotateRangeLeft(17, 111, 0);  // k == 0
  EXPECT_EQ(v, original);
}

TEST(BitVectorTest, RotateOnlyTouchesRange) {
  BitVector v(128);
  v.SetBit(0);    // below range
  v.SetBit(20);   // inside
  v.SetBit(120);  // above range
  v.RotateRangeLeft(17, 100, 3);
  EXPECT_TRUE(v.TestBit(0));
  EXPECT_TRUE(v.TestBit(120));
  EXPECT_TRUE(v.TestBit(17));  // 20 moved down by 3
  EXPECT_FALSE(v.TestBit(20));
}

TEST(BitVectorTest, RotateComposes) {
  // Rotating by a then b equals rotating by (a+b) mod len.
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    BitVector v(256);
    for (int i = 0; i < 25; ++i) v.SetBit(rng.Uniform(256));
    BitVector once = v;
    size_t a = rng.Uniform(300);
    size_t b = rng.Uniform(300);
    BitVector twice = v;
    twice.RotateRangeLeft(30, 200, a);
    twice.RotateRangeLeft(30, 200, b);
    once.RotateRangeLeft(30, 200, (a + b) % 200);
    EXPECT_EQ(twice, once);
  }
}

TEST(BitVectorTest, RotatePreservesPopcount) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    BitVector v(512);
    for (int i = 0; i < 40; ++i) v.SetBit(rng.Uniform(512));
    size_t ones = v.CountOnes();
    v.RotateRangeLeft(31, 481, rng.Uniform(481));
    EXPECT_EQ(v.CountOnes(), ones);
  }
}

// Bit-at-a-time reference for RotateRangeLeft, which moves whole words:
// offset (i + k) mod len of the range moves to offset i.
void RotateRangeLeftReference(BitVector* v, size_t start, size_t len,
                              size_t k) {
  if (len == 0) return;
  std::array<uint64_t, BitVector::kMaxWords> src = {};
  for (size_t i = 0; i < len; ++i) {
    if (v->TestBit(start + i)) src[i / 64] |= uint64_t{1} << (i % 64);
  }
  for (size_t i = 0; i < len; ++i) {
    const size_t from = (i + k) % len;
    if ((src[from / 64] >> (from % 64)) & 1) {
      v->SetBit(start + i);
    } else {
      v->ClearBit(start + i);
    }
  }
}

BitVector RandomBits(size_t width, uint64_t seed) {
  Rng rng(seed);
  BitVector v(width);
  for (size_t i = 0; i < width; ++i) {
    if (rng.Bernoulli(0.5)) v.SetBit(i);
  }
  return v;
}

bool RotationMatchesReference(const BitVector& original, size_t start,
                              size_t len, size_t k) {
  BitVector rotated = original;
  rotated.RotateRangeLeft(start, len, k);
  BitVector reference = original;
  RotateRangeLeftReference(&reference, start, len, k);
  return rotated == reference;
}

TEST(BitVectorTest, RotateMatchesTheBitLoopOnEveryCaseAt128Bits) {
  const BitVector original = RandomBits(128, 23);
  for (size_t start = 0; start < 128; ++start) {
    for (size_t len = 0; start + len <= 128; ++len) {
      for (size_t k = 0; k <= len; ++k) {
        ASSERT_TRUE(RotationMatchesReference(original, start, len, k))
            << "start=" << start << " len=" << len << " k=" << k;
      }
    }
  }
}

TEST(BitVectorTest, RotateMatchesTheBitLoopOnEveryRangeAt512Bits) {
  // Every (start, len) of the widest vector, at rotations that put the
  // word copies on and off word boundaries (k = 1, 63, 64, 65) plus the
  // half and near-full turns. Sweeping every k as well would cost the bit
  // loop about 6e9 bit moves.
  const BitVector original = RandomBits(512, 29);
  for (size_t start = 0; start < 512; ++start) {
    for (size_t len = 1; start + len <= 512; ++len) {
      const size_t rotations[] = {1, 63, 64, 65, len / 2, len - 1};
      for (size_t k : rotations) {
        ASSERT_TRUE(RotationMatchesReference(original, start, len, k))
            << "start=" << start << " len=" << len << " k=" << k;
      }
    }
  }
}

TEST(BitVectorTest, BinaryStringRoundTrip) {
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    BitVector v(128);
    for (int i = 0; i < 12; ++i) v.SetBit(rng.Uniform(128));
    auto parsed = BitVector::FromBinaryString(v.ToBinaryString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);
  }
}

TEST(BitVectorTest, FromBinaryStringRejectsJunk) {
  EXPECT_FALSE(BitVector::FromBinaryString("01x0").ok());
  EXPECT_FALSE(BitVector::FromBinaryString(std::string(600, '0')).ok());
}

TEST(BitVectorTest, SerializationRoundTrip) {
  Rng rng(23);
  for (size_t bits : {64u, 128u, 256u, 512u}) {
    BitVector v(bits);
    for (int i = 0; i < 20; ++i) v.SetBit(rng.Uniform(bits));
    std::string buffer;
    v.AppendToString(&buffer);
    std::string_view cursor = buffer;
    auto parsed = BitVector::ParseFrom(&cursor);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);
    EXPECT_TRUE(cursor.empty());
  }
}

TEST(BitVectorTest, ParseRejectsTruncation) {
  BitVector v(128);
  v.SetBit(5);
  std::string buffer;
  v.AppendToString(&buffer);
  std::string_view cursor = std::string_view(buffer).substr(0, 4);
  EXPECT_FALSE(BitVector::ParseFrom(&cursor).ok());
}

TEST(BitVectorTest, HexString) {
  BitVector v(64);
  v.SetBit(0);
  v.SetBit(4);
  EXPECT_EQ(v.ToHexString(), "0000000000000011");
}

TEST(BitVectorTest, NonWordMultipleWidthKeepsTailZero) {
  BitVector v(100);
  v.SetBit(99);
  EXPECT_EQ(v.CountOnes(), 1u);
  v.set_word(1, ~uint64_t{0});
  // Word 1 covers bits 64..99 once the tail is masked: 36 bits.
  EXPECT_EQ(v.CountOnes(), 36u);
}

}  // namespace
}  // namespace mate
