#include "util/simd.h"

#include <atomic>
#include <cstdlib>

// x86 SIMD variants are compiled whenever a GNU-flavored compiler targets
// x86: per-function target attributes let one translation unit carry SSE2
// and AVX2 code without raising the global -m baseline, and the dispatcher
// below only *selects* what cpuid reports. Everything else (non-x86, other
// compilers) runs the scalar reference.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define MATE_SIMD_X86 1
#include <immintrin.h>
#else
#define MATE_SIMD_X86 0
#endif

namespace mate {
namespace simd {

namespace {

// ------------------------------------------------------------ scalar ----
// The reference implementations every other level is differentially tested
// against (tests/simd_test.cpp). Raw-pointer sweeps, no per-word accessor
// calls.

bool CoversScalar(const uint64_t* q, const uint64_t* row, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if ((q[w] & ~row[w]) != 0) return false;
  }
  return true;
}

bool AndNotAnyScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  return !CoversScalar(a, b, n);
}

void OrWordsScalar(uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) a[w] |= b[w];
}

void AndWordsScalar(uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) a[w] &= b[w];
}

uint64_t PopcountScalar(const uint64_t* a, size_t n) {
  uint64_t total = 0;
  for (size_t w = 0; w < n; ++w) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[w]));
  }
  return total;
}

bool IsZeroScalar(const uint64_t* a, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if (a[w] != 0) return false;
  }
  return true;
}

constexpr KernelTable kScalarTable = {
    CoversScalar,   AndNotAnyScalar, OrWordsScalar, AndWordsScalar,
    PopcountScalar, IsZeroScalar,    KernelLevel::kScalar, "scalar"};

#if MATE_SIMD_X86

// -------------------------------------------------------------- SSE2 ----
// 128-bit sweeps. SSE2 has no PTEST, so zero checks go through a byte
// compare + movemask.

__attribute__((target("sse2"))) inline bool IsZero128Sse2(__m128i v) {
  const __m128i eq = _mm_cmpeq_epi8(v, _mm_setzero_si128());
  return _mm_movemask_epi8(eq) == 0xFFFF;
}

__attribute__((target("sse2"))) bool CoversSse2(const uint64_t* q,
                                                const uint64_t* row,
                                                size_t n) {
  size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const __m128i vq =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + w));
    const __m128i vr =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + w));
    // andnot(a, b) = ~a & b: the uncovered query bits of this chunk.
    if (!IsZero128Sse2(_mm_andnot_si128(vr, vq))) return false;
  }
  if (w < n && (q[w] & ~row[w]) != 0) return false;
  return true;
}

__attribute__((target("sse2"))) bool AndNotAnySse2(const uint64_t* a,
                                                   const uint64_t* b,
                                                   size_t n) {
  return !CoversSse2(a, b, n);
}

__attribute__((target("sse2"))) void OrWordsSse2(uint64_t* a,
                                                 const uint64_t* b,
                                                 size_t n) {
  size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<__m128i*>(a + w));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + w));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + w),
                     _mm_or_si128(va, vb));
  }
  if (w < n) a[w] |= b[w];
}

__attribute__((target("sse2"))) void AndWordsSse2(uint64_t* a,
                                                  const uint64_t* b,
                                                  size_t n) {
  size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<__m128i*>(a + w));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + w));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + w),
                     _mm_and_si128(va, vb));
  }
  if (w < n) a[w] &= b[w];
}

__attribute__((target("sse2"))) bool IsZeroSse2(const uint64_t* a, size_t n) {
  size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + w));
    if (!IsZero128Sse2(va)) return false;
  }
  return w >= n || a[w] == 0;
}

constexpr KernelTable kSse2Table = {
    CoversSse2,     AndNotAnySse2, OrWordsSse2,       AndWordsSse2,
    PopcountScalar, IsZeroSse2,    KernelLevel::kSse2, "sse2"};

// -------------------------------------------------------------- AVX2 ----
// 256-bit sweeps. VPTEST's carry flag gives the containment test directly:
// testc(row, q) sets CF iff (~row & q) == 0 — one instruction per 4-word
// chunk. -mavx2 also implies POPCNT, so the popcount sweep compiles to the
// hardware instruction here (the baseline build's __builtin_popcountll
// expands to bit twiddling).

__attribute__((target("avx2"))) bool CoversAvx2(const uint64_t* q,
                                                const uint64_t* row,
                                                size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i vq =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + w));
    const __m256i vr =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
    if (!_mm256_testc_si256(vr, vq)) return false;
  }
  if (w + 2 <= n) {
    const __m128i vq =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + w));
    const __m128i vr =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + w));
    if (!_mm_testc_si128(vr, vq)) return false;
    w += 2;
  }
  if (w < n && (q[w] & ~row[w]) != 0) return false;
  return true;
}

__attribute__((target("avx2"))) bool AndNotAnyAvx2(const uint64_t* a,
                                                   const uint64_t* b,
                                                   size_t n) {
  return !CoversAvx2(a, b, n);
}

__attribute__((target("avx2"))) void OrWordsAvx2(uint64_t* a,
                                                 const uint64_t* b,
                                                 size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + w),
                        _mm256_or_si256(va, vb));
  }
  for (; w < n; ++w) a[w] |= b[w];
}

__attribute__((target("avx2"))) void AndWordsAvx2(uint64_t* a,
                                                  const uint64_t* b,
                                                  size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + w),
                        _mm256_and_si256(va, vb));
  }
  for (; w < n; ++w) a[w] &= b[w];
}

__attribute__((target("avx2,popcnt"))) uint64_t PopcountAvx2(
    const uint64_t* a, size_t n) {
  uint64_t total = 0;
  for (size_t w = 0; w < n; ++w) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[w]));
  }
  return total;
}

__attribute__((target("avx2"))) bool IsZeroAvx2(const uint64_t* a, size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    if (!_mm256_testz_si256(va, va)) return false;
  }
  for (; w < n; ++w) {
    if (a[w] != 0) return false;
  }
  return true;
}

constexpr KernelTable kAvx2Table = {
    CoversAvx2,   AndNotAnyAvx2, OrWordsAvx2,       AndWordsAvx2,
    PopcountAvx2, IsZeroAvx2,    KernelLevel::kAvx2, "avx2"};

#endif  // MATE_SIMD_X86

// --------------------------------------------------------- dispatcher ----

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* ResolveActive() {
  KernelLevel level = DetectLevel();
  const char* env = std::getenv("MATE_FORCE_SCALAR");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    level = KernelLevel::kScalar;
  }
  const KernelTable* resolved = &TableForLevel(level);
  // First resolver wins; a concurrent ForceScalar store is never clobbered.
  const KernelTable* expected = nullptr;
  g_active.compare_exchange_strong(expected, resolved,
                                   std::memory_order_acq_rel);
  return g_active.load(std::memory_order_relaxed);
}

}  // namespace

const KernelTable& ScalarKernels() { return kScalarTable; }

const KernelTable& TableForLevel(KernelLevel level) {
#if MATE_SIMD_X86
  const KernelLevel best = DetectLevel();
  if (level >= KernelLevel::kAvx2 && best >= KernelLevel::kAvx2) {
    return kAvx2Table;
  }
  if (level >= KernelLevel::kSse2 && best >= KernelLevel::kSse2) {
    return kSse2Table;
  }
#else
  (void)level;
#endif
  return kScalarTable;
}

KernelLevel DetectLevel() {
#if MATE_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return KernelLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return KernelLevel::kSse2;
#endif
  return KernelLevel::kScalar;
}

const KernelTable& Kernels() {
  const KernelTable* table = g_active.load(std::memory_order_relaxed);
  if (table != nullptr) return *table;
  return *ResolveActive();
}

KernelLevel ActiveLevel() { return Kernels().level; }

const char* LevelName(KernelLevel level) {
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

void ForceScalar(bool on) {
  g_active.store(on ? &kScalarTable : &TableForLevel(DetectLevel()),
                 std::memory_order_release);
}

}  // namespace simd
}  // namespace mate
