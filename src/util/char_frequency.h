// The 37-symbol alphabet of §5.3.2 (a-z, 0-9, plus one bucket for every
// other character) and character-frequency tables used by XASH to pick the
// least frequent characters of a value.

#ifndef MATE_UTIL_CHAR_FREQUENCY_H_
#define MATE_UTIL_CHAR_FREQUENCY_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace mate {

/// Number of character segments in the XASH layout (§5.3.2).
inline constexpr int kAlphabetSize = 37;

/// Id of the bucket that absorbs spaces, punctuation, and non-ASCII bytes.
inline constexpr int kOtherCharId = 36;

/// Maps a byte to its alphabet id: 'a'-'z' (case-folded) -> 0..25,
/// '0'-'9' -> 26..35, everything else -> kOtherCharId.
int NormalizeChar(char c);

/// Representative printable symbol for an alphabet id ('*' for the bucket).
char AlphabetSymbol(int id);

/// Relative character frequencies over the 37-symbol alphabet. XASH prefers
/// *rarer* characters (§5.3.2 lemma: least frequent characters lead to fewer
/// collisions); ties break on smaller alphabet id, which realizes the
/// paper's lexicographic tie-break.
class CharFrequencyTable {
 public:
  /// Built-in table based on English letter/digram statistics; the default
  /// when no corpus statistics are available.
  static const CharFrequencyTable& English();

  /// Table estimated from observed character counts (e.g. a corpus scan).
  /// Zero-count symbols get a small epsilon so ranks stay total.
  static CharFrequencyTable FromCounts(
      const std::array<uint64_t, kAlphabetSize>& counts);

  /// Accumulates the characters of `value` into `counts` (normalized ids),
  /// `weight` times each: a value occurring n times counts once with n.
  static void CountCharacters(std::string_view value,
                              std::array<uint64_t, kAlphabetSize>* counts,
                              uint64_t weight = 1);

  double frequency(int id) const { return freq_[id]; }

  /// 0 = most frequent symbol, kAlphabetSize-1 = rarest.
  int rank(int id) const { return rank_[id]; }

  /// True iff symbol `a` should be selected before `b` when hunting for rare
  /// characters (strictly rarer, or equally rare with smaller id).
  bool Rarer(int a, int b) const {
    if (freq_[a] != freq_[b]) return freq_[a] < freq_[b];
    return a < b;
  }

 private:
  explicit CharFrequencyTable(const std::array<double, kAlphabetSize>& freq);

  std::array<double, kAlphabetSize> freq_;
  std::array<int, kAlphabetSize> rank_;
};

}  // namespace mate

#endif  // MATE_UTIL_CHAR_FREQUENCY_H_
