// Runtime-dispatched SIMD kernels for the discovery hot path. MATE (§6.3)
// spends its inner loop on the super-key masking test — (q & ~row) == 0
// over 1-8 words — and on the BitVector word sweeps behind it; these
// kernels vectorize exactly those sweeps.
//
// Dispatch policy:
//
//   * Three implementations are always *compiled*: a scalar reference,
//     an SSE2 variant, and an AVX2 variant (the x86 variants only on x86;
//     elsewhere every level aliases the scalar table). The best level the
//     host supports is *selected* once, at first use, via cpuid
//     (__builtin_cpu_supports) into one function-pointer table.
//   * `MATE_FORCE_SCALAR` (any non-empty value but "0") in the environment
//     at first use — or ForceScalar(true) / SessionOptions::
//     force_scalar_kernels at any point — pins the scalar reference table,
//     so sanitizer builds, non-x86 targets, and differential tests all run
//     the identical code path the SIMD variants are checked against.
//   * Selection is process-global (the kernels are pure functions of their
//     inputs; every level computes bit-identical results — pinned by
//     tests/simd_test.cpp), and reads are one relaxed atomic load, so the
//     per-call overhead is a pointer chase.
//
// Callers: BitVector's word sweeps (util/bitvector.h) and SuperKeyStore's
// single-row probe (index/superkey_store.h). The executor's row loop
// (core/query_executor.cpp) tests super keys with a plain word loop of
// its own: it loads each row key once and tests every combo key of the
// row's init value against it.

#ifndef MATE_UTIL_SIMD_H_
#define MATE_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace mate {
namespace simd {

enum class KernelLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// One resolved set of kernels. All word counts are in 64-bit words; every
/// function tolerates n == 0.
struct KernelTable {
  /// (q & ~row) == 0 over words [0, n) — the §6.3 containment test.
  bool (*covers)(const uint64_t* q, const uint64_t* row, size_t n);
  /// (a & ~b) != 0 for at least one word — the complement of covers.
  bool (*and_not_any)(const uint64_t* a, const uint64_t* b, size_t n);
  /// a[w] |= b[w] over words [0, n).
  void (*or_words)(uint64_t* a, const uint64_t* b, size_t n);
  /// a[w] &= b[w] over words [0, n).
  void (*and_words)(uint64_t* a, const uint64_t* b, size_t n);
  /// Total set bits over words [0, n).
  uint64_t (*popcount)(const uint64_t* a, size_t n);
  /// True iff every word in [0, n) is zero.
  bool (*is_zero)(const uint64_t* a, size_t n);

  KernelLevel level;
  const char* name;  // "scalar" / "sse2" / "avx2"
};

/// The active table: resolved on first call (cpuid + MATE_FORCE_SCALAR),
/// then one relaxed atomic load per call.
const KernelTable& Kernels();

/// The always-compiled scalar reference table (differential tests compare
/// every other level against it).
const KernelTable& ScalarKernels();

/// The table for `level`, degrading to the best *compiled-and-supported*
/// level at or below it (kScalar when the host lacks x86 SIMD entirely).
const KernelTable& TableForLevel(KernelLevel level);

/// Best level this host supports (kScalar off x86).
KernelLevel DetectLevel();

/// Level of the currently active table.
KernelLevel ActiveLevel();

const char* LevelName(KernelLevel level);

/// true pins the scalar reference table; false re-selects DetectLevel().
/// Process-global — it swaps the table every BitVector/SuperKeyStore call
/// dispatches through. Safe to toggle between queries (the levels compute
/// identical results, so even a mid-query toggle only changes speed).
void ForceScalar(bool on);

}  // namespace simd
}  // namespace mate

#endif  // MATE_UTIL_SIMD_H_
