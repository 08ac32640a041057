#include "util/page_allocator.h"

#include <new>

// Under AddressSanitizer the pages come from operator new, so its redzones
// keep watching the arrays.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MATE_PAGES_FROM_HEAP 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || !(defined(__unix__) || defined(__APPLE__))
#define MATE_PAGES_FROM_HEAP 1
#endif

#ifndef MATE_PAGES_FROM_HEAP
#include <sys/mman.h>
#endif

namespace mate {

void* AllocatePages(size_t bytes) {
  if (bytes == 0) return nullptr;
#ifdef MATE_PAGES_FROM_HEAP
  return ::operator new(bytes);
#else
  void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
#endif
}

void FreePages(void* pages, size_t bytes) {
  if (pages == nullptr) return;
#ifdef MATE_PAGES_FROM_HEAP
  (void)bytes;
  ::operator delete(pages);
#else
  ::munmap(pages, bytes);
#endif
}

}  // namespace mate
