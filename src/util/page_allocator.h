// Allocator for the index's bulk arrays: whole pages straight from the OS,
// handed back when freed. glibc already serves allocations this big with
// mmap, but freeing one raises its dynamic mmap threshold to that size.
// From then on, multi-MB temporaries such as serialization buffers come
// from the heap and stay resident after they are freed. Arrays built and
// dropped in bulk (a posting arena per index, the build's per-cell buffer)
// would trip that on every rebuild.

#ifndef MATE_UTIL_PAGE_ALLOCATOR_H_
#define MATE_UTIL_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <vector>

namespace mate {

/// `bytes` of memory on pages of its own (null for 0); throws
/// std::bad_alloc.
void* AllocatePages(size_t bytes);
/// Returns memory from AllocatePages(bytes).
void FreePages(void* pages, size_t bytes);

template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(AllocatePages(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { FreePages(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PageAllocator<U>&) const {
    return false;
  }
};

/// A vector whose buffer comes from PageAllocator.
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace mate

#endif  // MATE_UTIL_PAGE_ALLOCATOR_H_
