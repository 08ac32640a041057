#include "storage/value_dictionary.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace mate {

namespace {
constexpr size_t kMinSlots = 16;
}  // namespace

uint32_t ValueDictionary::Tag(std::string_view value) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(value) >> 32);
}

size_t ValueDictionary::Probe(std::string_view value, uint32_t tag) const {
  // Never full (at most half), so an empty slot ends every probe.
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kEmpty || (slot.tag == tag && ValueOf(slot.id) == value)) {
      return i;
    }
  }
}

void ValueDictionary::Rehash(size_t capacity) {
  std::vector<Slot> slots(capacity, Slot{0, kEmpty});
  const size_t mask = capacity - 1;
  for (const Slot& slot : slots_) {
    if (slot.id == kEmpty) continue;
    size_t i = slot.tag & mask;
    while (slots[i].id != kEmpty) i = (i + 1) & mask;
    slots[i] = slot;
  }
  slots_ = std::move(slots);
}

ValueId ValueDictionary::GetOrAdd(std::string_view normalized) {
  if (2 * (size() + 1) > slots_.size() && size() < kMaxSize) {
    Rehash(std::max(kMinSlots, 2 * slots_.size()));
  }
  const uint32_t tag = Tag(normalized);
  const size_t i = Probe(normalized, tag);
  if (slots_[i].id != kEmpty) return slots_[i].id;
  if (size() == kMaxSize) return kInvalidValueId;
  const auto id = static_cast<uint32_t>(size());
  bytes_.append(normalized);
  ends_.push_back(bytes_.size());
  slots_[i] = Slot{tag, id};
  return id;
}

ValueId ValueDictionary::Find(std::string_view normalized) const {
  if (slots_.empty()) return kInvalidValueId;
  const Slot& slot = slots_[Probe(normalized, Tag(normalized))];
  return slot.id == kEmpty ? kInvalidValueId : slot.id;
}

void ValueDictionary::Reserve(size_t n) {
  n = std::min<size_t>(n, kMaxSize);
  size_t capacity = kMinSlots;
  while (capacity < 2 * n) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
  ends_.reserve(n);
}

size_t ValueDictionary::MemoryBytes() const {
  return bytes_.capacity() + ends_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(Slot);
}

}  // namespace mate
