#include "util/mapped_file.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define MATE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#else
#define MATE_HAS_MMAP 0
#include <fstream>
#include <sstream>
#endif

namespace mate {

MappedFile::~MappedFile() { Release(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(std::exchange(other.addr_, nullptr)),
      length_(std::exchange(other.length_, 0)),
      fallback_(std::move(other.fallback_)) {
  other.fallback_.clear();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Release();
    addr_ = std::exchange(other.addr_, nullptr);
    length_ = std::exchange(other.length_, 0);
    fallback_ = std::move(other.fallback_);
    other.fallback_.clear();
  }
  return *this;
}

void MappedFile::Release() {
#if MATE_HAS_MMAP
  if (addr_ != nullptr) ::munmap(addr_, length_);
#endif
  addr_ = nullptr;
  length_ = 0;
  fallback_.clear();
  fallback_.shrink_to_fit();
}

MappedFile MappedFile::Adopt(std::string bytes) {
  MappedFile file;
  file.fallback_ = std::move(bytes);
  return file;
}

#if MATE_HAS_MMAP

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);

  MappedFile file;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    const size_t length = static_cast<size_t>(st.st_size);
    void* addr = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      ::close(fd);
#ifdef MADV_SEQUENTIAL
      // The loader streams front to back; ask for aggressive readahead.
      ::madvise(addr, length, MADV_SEQUENTIAL);
#endif
      file.addr_ = addr;
      file.length_ = length;
      return file;
    }
  }

  // Read-copy fallback: FIFOs, device/proc files, zero-size files, or an
  // mmap refusal. The descriptor is already open, so read it directly.
  std::string buffer;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("read failed: " + path);
    }
    if (n == 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  file.fallback_ = std::move(buffer);
  return file;
}

#else  // !MATE_HAS_MMAP

Result<MappedFile> MappedFile::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::IOError("read failed: " + path);
  MappedFile file;
  file.fallback_ = std::move(ss).str();
  return file;
}

#endif  // MATE_HAS_MMAP

}  // namespace mate
