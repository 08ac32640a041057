#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace mate {
namespace {

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("MuHaMMad"), "muhammad");
  EXPECT_EQ(ToLower("ABC-123"), "abc-123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-space"), "no-space");
}

TEST(StringUtilTest, NormalizeValue) {
  EXPECT_EQ(NormalizeValue("  Muhammad "), "muhammad");
  EXPECT_EQ(NormalizeValue("US"), "us");
  EXPECT_EQ(NormalizeValue(" 60K"), "60k");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split(",b,", ','), (std::vector<std::string>{"", "b", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  std::string original = "x|y||z";
  EXPECT_EQ(Join(Split(original, '|'), "|"), original);
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123456789"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits("-12"));
}

TEST(StringUtilTest, ParseSmallUint) {
  unsigned value = 99;
  EXPECT_TRUE(ParseSmallUint("0", 1024, &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseSmallUint("1024", 1024, &value));
  EXPECT_EQ(value, 1024u);

  value = 99;
  EXPECT_FALSE(ParseSmallUint("1025", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("abc", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("-1", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("12 ", 1024, &value));
  // 2^32 and far beyond must not wrap into range.
  EXPECT_FALSE(ParseSmallUint("4294967296", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("99999999999999999999", 1024, &value));
  EXPECT_EQ(value, 99u);  // untouched on every failure
}

TEST(StringUtilTest, ParseUintFlag) {
  auto threads = ParseUintFlag("threads", "8", 1024);
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(*threads, 8u);
  auto at_max = ParseUintFlag("port", "65535", 65535);
  ASSERT_TRUE(at_max.ok());
  EXPECT_EQ(*at_max, 65535u);

  // Garbage, signs, overflow and out-of-range values are InvalidArgument
  // naming the flag, the range and the text — never an exception.
  for (const char* text : {"abc", "-3", "", "1.5", "1025",
                           "99999999999999999999"}) {
    auto parsed = ParseUintFlag("k", text, 1024);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
    EXPECT_EQ(parsed.status().message(),
              "--k must be an integer in [0, 1024], got '" +
                  std::string(text) + "'");
  }
}

TEST(StringUtilTest, NormalizedEqualsMatchesNormalizeValue) {
  const char* raws[] = {"  Muhammad ", "US", "us ", "60k", "", "  ",
                        "Ansel Adams", "a"};
  const char* norms[] = {"muhammad", "us", "lee", "", "ansel adams"};
  for (const char* raw : raws) {
    for (const char* norm : norms) {
      EXPECT_EQ(NormalizedEquals(norm, raw), NormalizeValue(raw) == norm)
          << "raw=[" << raw << "] norm=[" << norm << "]";
    }
  }
}

TEST(StringUtilTest, NormalizedEqualsIsZeroAllocCorrect) {
  EXPECT_TRUE(NormalizedEquals("muhammad", "  MUHAMMAD  "));
  EXPECT_FALSE(NormalizedEquals("muhammad", "muhammed"));
  EXPECT_FALSE(NormalizedEquals("muhammad", "muhamma"));
  EXPECT_TRUE(NormalizedEquals("", "   "));
}

// The inline ASCII helpers replace <cctype> calls on the normalization
// path. Nothing calls setlocale, so <cctype> runs in the C locale here as
// in the library, and every byte value must classify and fold the same.
TEST(StringUtilTest, AsciiHelpersMatchCctypeOnEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool space = std::isspace(b) != 0;
    const char lower = static_cast<char>(std::tolower(b));
    EXPECT_EQ(IsAsciiSpace(c), space) << b;
    EXPECT_EQ(AsciiToLower(c), lower) << b;
    const std::string cell = std::string("x") + c + "y";
    EXPECT_EQ(ToLower(cell), std::string("x") + lower + "y") << b;
    EXPECT_EQ(Trim(std::string(1, c)).empty(), space) << b;
    EXPECT_EQ(Trim(cell), cell) << b;
    EXPECT_TRUE(NormalizedEquals(NormalizeValue(cell), cell)) << b;
    const std::string normalized = space ? "" : std::string(1, lower);
    EXPECT_TRUE(NormalizedEquals(normalized, std::string(1, c))) << b;
  }
}

TEST(StringUtilTest, FormatKeyCombo) {
  EXPECT_EQ(FormatKeyCombo({"muhammad", "lee", "us"}), "muhammad|lee|us");
}

}  // namespace
}  // namespace mate
