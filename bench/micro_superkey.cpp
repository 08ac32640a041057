// Micro-bench for the §6.3 row-filter probe: super-key containment tests
// ((q & ~row) == 0) against a SuperKeyStore slab through the single-row
// Covers call, under the forced-scalar and the dispatched (SIMD) kernels,
// at the hash widths the repo actually runs (128-bit default, 512-bit
// stress).
//
// Unlike the other micro_* benches this one is self-contained (no Google
// Benchmark): CI's bench-smoke runs it off bench/smoke_list.txt with
// --json=, and it carries a hard gate the library must keep:
//
//   * bit-identity: every (mode, width) sweep must report the exact same
//     match count and probe checksum — the kernels may only change speed,
//     never an answer (exit 1 otherwise).
//
// --scale scales the row count; --json feeds the BENCH_*.json trajectory.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/report.h"
#include "index/superkey_store.h"
#include "util/bitvector.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stopwatch.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

constexpr size_t kBaseRows = 200000;
constexpr int kSweeps = 5;  // per (mode, width); best-of to damp jitter

BitVector RandomKey(Rng* rng, size_t bits, int ones) {
  BitVector v(bits);
  for (int i = 0; i < ones; ++i) {
    v.SetBit(static_cast<size_t>(rng->Uniform(bits)));
  }
  return v;
}

// One probe sweep: every row of table 0 against every query. Returns the
// number of covering (query, row) pairs and folds each probe into
// `checksum` so modes can be diffed bit for bit.
uint64_t SweepSingle(const SuperKeyStore& store, size_t rows,
                     const std::vector<BitVector>& queries,
                     uint64_t* checksum) {
  uint64_t matches = 0;
  uint64_t sum = *checksum;
  for (const BitVector& q : queries) {
    for (RowId r = 0; r < rows; ++r) {
      const bool hit = store.Covers(0, r, q);
      matches += hit ? 1 : 0;
      sum = sum * 31 + (hit ? 1 : 0);
    }
  }
  *checksum = sum;
  return matches;
}

struct SweepResult {
  double probes_per_sec = 0;
  uint64_t matches = 0;
  uint64_t checksum = 0;
};

SweepResult RunMode(const SuperKeyStore& store, size_t rows,
                    const std::vector<BitVector>& queries) {
  SweepResult best;
  const double total_probes =
      static_cast<double>(rows) * static_cast<double>(queries.size());
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    uint64_t checksum = 0;
    Stopwatch timer;
    const uint64_t matches = SweepSingle(store, rows, queries, &checksum);
    const double rate = total_probes / timer.ElapsedSeconds();
    if (sweep == 0) {
      best.matches = matches;
      best.checksum = checksum;
    } else if (matches != best.matches || checksum != best.checksum) {
      std::cerr << "micro_superkey: sweep " << sweep
                << " diverged from sweep 0 within one mode\n";
      std::exit(1);
    }
    best.probes_per_sec = std::max(best.probes_per_sec, rate);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 1.0;
  BenchArgs args = ParseBenchArgs(argc, argv, "micro_superkey", defaults);
  BenchJsonWriter json("micro_superkey", args.threads);

  const size_t rows =
      std::max<size_t>(4096, static_cast<size_t>(kBaseRows * args.scale));
  constexpr size_t kQueries = 8;

  std::cout << "micro_superkey: " << rows << " rows x " << kQueries
            << " queries per sweep, dispatched level = "
            << simd::LevelName(simd::ActiveLevel()) << "\n\n";

  ReportTable report({"bits", "mode", "probe", "Mprobe/s", "matches"});

  const bool env_forced_scalar =
      simd::ActiveLevel() == simd::KernelLevel::kScalar;
  for (size_t hash_bits : {size_t{128}, size_t{512}}) {
    SuperKeyStore store(hash_bits);
    store.EnsureTable(0, rows);
    Rng rng(args.seed + hash_bits);
    // Sparse-ish super keys (~15% ones) probed by 4-bit queries: roughly
    // the density the XASH path produces, with a realistic hit/miss mix.
    for (RowId r = 0; r < rows; ++r) {
      store.Set(0, r, RandomKey(&rng, hash_bits,
                                static_cast<int>(hash_bits / 7)));
    }
    std::vector<BitVector> queries;
    for (size_t q = 0; q < kQueries; ++q) {
      queries.push_back(RandomKey(&rng, hash_bits, 4));
    }

    SweepResult reference;  // scalar: the ground truth
    for (bool use_simd : {false, true}) {
      if (use_simd && env_forced_scalar) continue;  // honor MATE_FORCE_SCALAR
      simd::ForceScalar(!use_simd);
      const SweepResult r = RunMode(store, rows, queries);
      if (!use_simd) {
        reference = r;
      } else if (r.matches != reference.matches ||
                 r.checksum != reference.checksum) {
        std::cerr << "micro_superkey: bit-identity violation at bits="
                  << hash_bits << "\n";
        return 1;
      }
      const std::string mode = use_simd ? "simd" : "scalar";
      report.AddRow({std::to_string(hash_bits), mode, "single",
                     FormatDouble(r.probes_per_sec / 1e6, 1),
                     std::to_string(r.matches)});
      json.Add("bits=" + std::to_string(hash_bits), mode + "_single",
               r.probes_per_sec / 1e6, "Mprobe/s");
    }
  }
  simd::ForceScalar(env_forced_scalar);

  report.Print(std::cout);
  std::cout << "\n";

  if (!json.WriteTo(args.json_path)) return 1;
  std::cout << "micro_superkey: OK\n";
  return 0;
}
