#include "storage/value_dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mate {
namespace {

TEST(ValueDictionaryTest, AssignsDenseIds) {
  ValueDictionary dict;
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.GetOrAdd("b"), 1u);
  EXPECT_EQ(dict.GetOrAdd("c"), 2u);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(ValueDictionaryTest, GetOrAddIsIdempotent) {
  ValueDictionary dict;
  ValueId a = dict.GetOrAdd("value");
  EXPECT_EQ(dict.GetOrAdd("value"), a);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(ValueDictionaryTest, FindWithoutInsert) {
  ValueDictionary dict;
  dict.GetOrAdd("present");
  EXPECT_EQ(dict.Find("present"), 0u);
  EXPECT_EQ(dict.Find("absent"), kInvalidValueId);
  EXPECT_EQ(dict.size(), 1u);  // Find never inserts
}

TEST(ValueDictionaryTest, ValueOfRoundTrips) {
  ValueDictionary dict;
  ValueId id = dict.GetOrAdd("muhammad");
  dict.GetOrAdd("lee");
  EXPECT_EQ(dict.ValueOf(id), "muhammad");
  EXPECT_EQ(dict.ValueOf(dict.Find("lee")), "lee");
}

TEST(ValueDictionaryTest, PointersSurviveRehash) {
  ValueDictionary dict;
  ValueId first = dict.GetOrAdd("first");
  // Force many rehashes of the underlying map.
  for (int i = 0; i < 10000; ++i) dict.GetOrAdd("v" + std::to_string(i));
  EXPECT_EQ(dict.ValueOf(first), "first");
  EXPECT_EQ(dict.size(), 10001u);
}

TEST(ValueDictionaryTest, EmptyStringIsAValue) {
  ValueDictionary dict;
  ValueId id = dict.GetOrAdd("");
  EXPECT_EQ(dict.Find(""), id);
  EXPECT_EQ(dict.ValueOf(id), "");
}

TEST(ValueDictionaryTest, FindOnAnEmptyDictionary) {
  const ValueDictionary dict;
  EXPECT_EQ(dict.Find("anything"), kInvalidValueId);
  EXPECT_EQ(dict.Find(""), kInvalidValueId);
  EXPECT_EQ(dict.size(), 0u);
}

TEST(ValueDictionaryTest, IdsAreDenseInFirstAppearanceOrder) {
  ValueDictionary dict;
  const std::vector<std::string> stream = {"c", "a", "c", "b", "a", "d", "b"};
  std::vector<ValueId> ids;
  for (const std::string& value : stream) {
    ids.push_back(dict.GetOrAdd(value));
  }
  EXPECT_EQ(ids, (std::vector<ValueId>{0, 1, 0, 2, 1, 3, 2}));
  ASSERT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.ValueOf(0), "c");
  EXPECT_EQ(dict.ValueOf(1), "a");
  EXPECT_EQ(dict.ValueOf(2), "b");
  EXPECT_EQ(dict.ValueOf(3), "d");
}

TEST(ValueDictionaryTest, RoundTripsThroughManyGrowths) {
  // 120k values take the slot array through a dozen doublings; every id
  // must keep its value, and every value must still find its id.
  constexpr size_t kValues = 120000;
  const auto value_of = [](size_t i) {
    return "value-" + std::to_string(i * 7919 % 1000003);
  };
  ValueDictionary dict;
  for (size_t i = 0; i < kValues; ++i) {
    ASSERT_EQ(dict.GetOrAdd(value_of(i)), i);
  }
  ASSERT_EQ(dict.size(), kValues);
  for (size_t i = 0; i < kValues; ++i) {
    ASSERT_EQ(dict.ValueOf(i), value_of(i)) << i;
    ASSERT_EQ(dict.Find(value_of(i)), i) << i;
    ASSERT_EQ(dict.GetOrAdd(value_of(i)), i) << i;
  }
  EXPECT_EQ(dict.size(), kValues);
  EXPECT_EQ(dict.Find("value-absent"), kInvalidValueId);
}

TEST(ValueDictionaryTest, HoldsAnyByteAndLongValues) {
  // Normalized values may hold any byte, NUL and the unit separator
  // included, and run past 64 KiB: none of them may alias another value.
  const std::string nul("a\0b", 3);
  const std::string nul_prefix("a", 1);
  const std::string separator("a\x1f" "b", 3);
  const std::string only_nul(1, '\0');
  const std::string long_a(70000, 'a');
  std::string long_b = long_a;
  long_b.back() = 'b';
  const std::vector<std::string> values = {nul,     nul_prefix, separator,
                                           only_nul, long_a,    long_b, ""};
  ValueDictionary dict;
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.GetOrAdd(values[i]), i);
  }
  ASSERT_EQ(dict.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.Find(values[i]), i);
    EXPECT_EQ(dict.ValueOf(i), values[i]);
  }
  EXPECT_EQ(dict.ValueOf(4).size(), 70000u);
  EXPECT_EQ(dict.Find(std::string(70000, 'b')), kInvalidValueId);
}

TEST(ValueDictionaryTest, ReserveKeepsIdsAndValues) {
  ValueDictionary dict;
  dict.GetOrAdd("kept");
  dict.Reserve(50000);
  EXPECT_EQ(dict.Find("kept"), 0u);
  for (int i = 0; i < 50000; ++i) dict.GetOrAdd("r" + std::to_string(i));
  EXPECT_EQ(dict.size(), 50001u);
  EXPECT_EQ(dict.ValueOf(0), "kept");
  EXPECT_EQ(dict.Find("r49999"), 50000u);
}

TEST(ValueDictionaryTest, MemoryBytesGrows) {
  ValueDictionary dict;
  size_t empty = dict.MemoryBytes();
  for (int i = 0; i < 100; ++i) dict.GetOrAdd("value" + std::to_string(i));
  EXPECT_GT(dict.MemoryBytes(), empty);
}

}  // namespace
}  // namespace mate
