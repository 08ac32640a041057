#include "index/superkey_store.h"

#include <gtest/gtest.h>

#include "util/coding.h"
#include "util/rng.h"

namespace mate {
namespace {

BitVector RandomKey(Rng* rng, size_t bits, int ones) {
  BitVector v(bits);
  for (int i = 0; i < ones; ++i) v.SetBit(rng->Uniform(bits));
  return v;
}

TEST(SuperKeyStoreTest, SetGetRoundTrip) {
  SuperKeyStore store(128);
  store.EnsureTable(0, 3);
  Rng rng(5);
  BitVector key = RandomKey(&rng, 128, 9);
  store.Set(0, 1, key);
  EXPECT_EQ(store.Get(0, 1), key);
  EXPECT_TRUE(store.Get(0, 0).IsZero());
}

TEST(SuperKeyStoreTest, EnsureTableGrowsSparsely) {
  SuperKeyStore store(128);
  store.EnsureTable(5, 2);  // tables 0..5 exist, only 5 has rows
  EXPECT_EQ(store.num_tables(), 6u);
  EXPECT_EQ(store.NumRows(5), 2u);
  EXPECT_EQ(store.NumRows(0), 0u);
  store.EnsureTable(5, 1);  // shrinking is a no-op
  EXPECT_EQ(store.NumRows(5), 2u);
}

TEST(SuperKeyStoreTest, AppendRowReturnsSequentialIds) {
  SuperKeyStore store(256);
  EXPECT_EQ(store.AppendRow(0), 0u);
  EXPECT_EQ(store.AppendRow(0), 1u);
  EXPECT_EQ(store.AppendRow(2), 0u);
  EXPECT_EQ(store.NumRows(0), 2u);
}

TEST(SuperKeyStoreTest, OrIntoAccumulates) {
  SuperKeyStore store(128);
  store.EnsureTable(0, 1);
  BitVector a(128), b(128);
  a.SetBit(3);
  b.SetBit(100);
  store.OrInto(0, 0, a);
  store.OrInto(0, 0, b);
  BitVector key = store.Get(0, 0);
  EXPECT_TRUE(key.TestBit(3));
  EXPECT_TRUE(key.TestBit(100));
  EXPECT_EQ(key.CountOnes(), 2u);
}

TEST(SuperKeyStoreTest, ResetZeroes) {
  SuperKeyStore store(128);
  store.EnsureTable(0, 2);
  BitVector a(128);
  a.SetBit(7);
  store.Set(0, 0, a);
  store.Set(0, 1, a);
  store.Reset(0, 0);
  EXPECT_TRUE(store.Get(0, 0).IsZero());
  EXPECT_FALSE(store.Get(0, 1).IsZero());
}

TEST(SuperKeyStoreTest, CoversMatchesIsSubsetOf) {
  SuperKeyStore store(128);
  store.EnsureTable(0, 1);
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    BitVector row_key = RandomKey(&rng, 128, 12);
    BitVector query = RandomKey(&rng, 128, 5);
    store.Set(0, 0, row_key);
    EXPECT_EQ(store.Covers(0, 0, query), query.IsSubsetOf(row_key));
  }
}

TEST(SuperKeyStoreTest, MemoryBytesTracksRows) {
  SuperKeyStore store(128);
  EXPECT_EQ(store.MemoryBytes(), 0u);
  store.EnsureTable(0, 10);
  EXPECT_EQ(store.MemoryBytes(), 10u * 16);  // 128 bits = 16 bytes per row
}

TEST(SuperKeyStoreTest, SerializationRoundTrip) {
  SuperKeyStore store(192);
  Rng rng(11);
  store.EnsureTable(0, 3);
  store.EnsureTable(2, 1);
  for (RowId r = 0; r < 3; ++r) store.Set(0, r, RandomKey(&rng, 192, 8));
  store.Set(2, 0, RandomKey(&rng, 192, 8));

  std::string bytes;
  store.AppendToString(&bytes);
  std::string_view cursor = bytes;
  auto loaded = SuperKeyStore::ParseFrom(&cursor);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(loaded->hash_bits(), 192u);
  EXPECT_EQ(loaded->num_tables(), 3u);
  for (RowId r = 0; r < 3; ++r) EXPECT_EQ(loaded->Get(0, r), store.Get(0, r));
  EXPECT_EQ(loaded->Get(2, 0), store.Get(2, 0));
}

TEST(SuperKeyStoreTest, ParseRejectsCorruptWidth) {
  std::string bytes;
  PutVarint64(&bytes, 100);  // not a multiple of 64
  std::string_view cursor = bytes;
  EXPECT_FALSE(SuperKeyStore::ParseFrom(&cursor).ok());
}

}  // namespace
}  // namespace mate
