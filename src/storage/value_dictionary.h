// Interns normalized cell values to dense ValueIds. The inverted index keys
// posting lists by ValueId rather than by string, and the discovery phase
// resolves query values through the same dictionary.
//
// Layout: the values sit back to back in one byte arena, value id v ending
// at ends_[v] (and starting where v - 1 ends), so ids are dense and in
// first-appearance order. A power-of-two, open-addressed slot array of
// (hash tag, id) pairs indexes them: a probe compares 32-bit tags and reads
// the arena only on a tag match, and growing the slots rehashes from the
// tags alone. The arena reallocates as it grows, so a view from ValueOf
// stays valid only until the next GetOrAdd.

#ifndef MATE_STORAGE_VALUE_DICTIONARY_H_
#define MATE_STORAGE_VALUE_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/types.h"

namespace mate {

class ValueDictionary {
 public:
  /// Most values a dictionary holds: a slot's home is its tag's low bits,
  /// so at most 2^32 slots, kept at most half full.
  static constexpr uint64_t kMaxSize = uint64_t{1} << 31;

  /// Interns `normalized` (callers must pre-normalize) and returns its id,
  /// or kInvalidValueId when the value is new and the dictionary already
  /// holds kMaxSize values.
  ValueId GetOrAdd(std::string_view normalized);

  /// Id of `normalized`, or kInvalidValueId if never interned.
  ValueId Find(std::string_view normalized) const;

  /// The value of `id`, valid until the next GetOrAdd. Precondition:
  /// id < size().
  std::string_view ValueOf(ValueId id) const {
    const uint64_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(bytes_.data() + begin, ends_[id] - begin);
  }

  size_t size() const { return ends_.size(); }

  /// Sizes the slots and the id table for `n` values (no more than
  /// kMaxSize), so that interning that many never rehashes.
  void Reserve(size_t n);

  /// Heap footprint, for index sizing stats.
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  struct Slot {
    uint32_t tag;
    uint32_t id;  // kEmpty: a free slot
  };

  static uint32_t Tag(std::string_view value);

  // The slot holding `value`, or the free slot where it would go.
  size_t Probe(std::string_view value, uint32_t tag) const;

  // Re-seats every id in a slot array of `capacity` (a power of two).
  void Rehash(size_t capacity);

  std::string bytes_;
  std::vector<uint64_t> ends_;
  std::vector<Slot> slots_;
};

}  // namespace mate

#endif  // MATE_STORAGE_VALUE_DICTIONARY_H_
