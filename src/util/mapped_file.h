// Read-only whole-file mapping with a read-copy fallback. The phased index
// loader maps its file so a cold start faults pages in lazily while the
// parser streams through them, instead of paying an upfront full-file copy
// into a heap buffer (the old ReadFileToString path). Inputs that cannot be
// mapped — non-regular files such as pipes or /proc entries, zero-length
// files, platforms without mmap — transparently fall back to an owned copy
// read through the same handle.

#ifndef MATE_UTIL_MAPPED_FILE_H_
#define MATE_UTIL_MAPPED_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace mate {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only, advising the kernel of sequential access, or
  /// reads it into an owned buffer when mapping is impossible. IOError when
  /// the file cannot be opened or read.
  static Result<MappedFile> Open(const std::string& path);

  /// Wraps an image already in memory as an owned buffer (the read-copy
  /// fallback's representation), so it rides the same readers as a file.
  static MappedFile Adopt(std::string bytes);

  /// The file contents; valid until this object is destroyed or moved from.
  std::string_view view() const {
    return is_mapped() ? std::string_view(static_cast<const char*>(addr_),
                                          length_)
                       : std::string_view(fallback_);
  }

  /// True when backed by an mmap (pages fault lazily) rather than the
  /// read-copy fallback.
  bool is_mapped() const { return addr_ != nullptr; }

  size_t size() const { return view().size(); }

  /// Releases the mapping (or the fallback buffer) early; view() becomes
  /// empty. The phased loader calls this once streaming is done so the
  /// address space does not stay pinned for the session's lifetime.
  void Release();

 private:
  void* addr_ = nullptr;
  size_t length_ = 0;
  std::string fallback_;
};

}  // namespace mate

#endif  // MATE_UTIL_MAPPED_FILE_H_
