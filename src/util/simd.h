// The SIMD level the build targets, as benchmark host records name it.
// Every bit operation is a plain word loop (util/bitvector.h), so the level
// is a property of the build, not of the host. Header-only and C++17-clean:
// code built at the compiler's default standard includes it.

#ifndef MATE_UTIL_SIMD_H_
#define MATE_UTIL_SIMD_H_

namespace mate {
namespace simd {

enum class KernelLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The level the build targets: kAvx2 when compiled for AVX2 (-mavx2 or a
/// -march that implies it), kSse2 on baseline x86-64, kScalar elsewhere.
constexpr KernelLevel ActiveLevel() {
#if defined(__AVX2__)
  return KernelLevel::kAvx2;
#elif defined(__SSE2__)
  return KernelLevel::kSse2;
#else
  return KernelLevel::kScalar;
#endif
}

constexpr const char* LevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kSse2:
      return "sse2";
    case KernelLevel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

}  // namespace simd
}  // namespace mate

#endif  // MATE_UTIL_SIMD_H_
