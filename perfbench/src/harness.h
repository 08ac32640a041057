// Shared plumbing of the MATE benchmark binary: run arguments, the metric
// report and its one-line JSON result, input/reference digests, latency
// percentiles, host records (nproc, CPU, SIMD level, CPU steal, peak RSS),
// span folding for the traced run, and the correctness checks every
// workload applies to the program's results.
//
// Everything here talks to the engine through its public headers only; the
// benchmark adds no code under src/. Its statistics, digests and request
// generator are its own rather than the engine's util/ helpers, so a change
// to the program cannot change how the program is measured.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/topk.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "storage/corpus.h"

namespace perfbench {

/// The seed whose input and reference digests are pinned in
/// perfbench/pinned_digests.txt.
inline constexpr uint64_t kDefaultSeed = 1;

struct RunArgs {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's own files (saved lake images, slow-query
  /// log); created if missing, and the files are removed at exit.
  std::string work_dir = ".bench_build/perfbench-work";
  std::string pinned_path = "perfbench/pinned_digests.txt";
  /// Provenance stamped into the host record (run.py fills them in).
  std::string git_sha = "none";
  std::string src_digest = "none";
};

/// One reported number. `samples` is the sample count behind a percentile
/// or mean (0 when the number is not a statistic over samples).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// What one run found: correctness, the attempted/failed tally of timed
/// queries, and the metrics of the requested kind (end-to-end or per-layer).
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},..}}, numbers with all digits.
std::string ResultJson(const RunReport& report);

/// Human-readable table of every metric with its unit and sample count.
void PrintMetricTable(const RunReport& report, const std::string& title);

// ---- deterministic inputs ---------------------------------------------------

/// SplitMix64: the benchmark's own generator for request sequences, kept
/// independent of src/ so only the lake generator can move the inputs (and
/// the pinned digest catches that).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  /// Fisher-Yates over `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Uniform(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// 64-bit FNV-1a over length-prefixed fields.
class Digest {
 public:
  void Bytes(std::string_view s);
  void U64(uint64_t v);
  std::string Hex() const;

 private:
  void Raw(const void* data, size_t n);
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

void DigestTable(const mate::Table& table, Digest* d);
void DigestCorpus(const mate::Corpus& corpus, Digest* d);
void DigestTopK(const std::vector<mate::TableResult>& top_k, Digest* d);

/// Compares the run's digests against the pinned line for
/// (workload, kDefaultSeed) when `seed` is the default seed. A missing pin
/// file or line is reported and is not a failure; a mismatch is.
void CheckPinnedDigests(const RunArgs& args, const std::string& input_hex,
                        const std::string& reference_hex, RunReport* report);

// ---- correctness ------------------------------------------------------------

/// Same ids, scores and mappings, in the same order.
bool SameTopK(const std::vector<mate::TableResult>& a,
              const std::vector<mate::TableResult>& b);
bool SameServedTopK(const std::vector<mate::ServedResult>& served,
                    const std::vector<mate::TableResult>& expected);

/// Checks each returned table's score against the §2 brute-force
/// joinability over `lake` (the generated, fully resident lake).
bool MatchesBruteForce(const mate::Corpus& lake, const mate::Table& query,
                       const std::vector<mate::ColumnId>& key_columns,
                       const std::vector<mate::TableResult>& top_k,
                       std::string* why);

// ---- statistics -------------------------------------------------------------

/// Nearest-rank percentile of `values` (p in [0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// One timed query: when it completed (seconds into the timed phase), how
/// long it took, and whether it returned its reference result.
struct Sample {
  double done_s = 0.0;
  double latency_ms = 0.0;
  bool ok = true;
};

std::vector<double> Latencies(const std::vector<Sample>& samples);

/// A timed phase cut into `windows` equal spans of completion time. Each
/// number is the median over the windows of that window's statistic, so a
/// burst of host contention shorter than a window moves one window and not
/// the result.
struct WindowedStats {
  size_t windows = 0;
  double qps = 0.0;  // successful completions per second of window
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::vector<double> window_qps;
  std::vector<double> window_p90_ms;
};
WindowedStats MedianOverWindows(const std::vector<Sample>& samples,
                                double wall_s, size_t windows);

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- host -------------------------------------------------------------------

/// Cumulative CPU jiffies from /proc/stat's aggregate line.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
/// Share of CPU time the hypervisor stole between two readings.
double StealFraction(const CpuTimes& before, const CpuTimes& after);

/// Resets the process's peak-RSS high-water mark (VmHWM).
void ResetPeakRss();
/// VmHWM in MB (1e6 bytes).
double PeakRssMb();

/// One JSON object describing the host and build of this run.
std::string HostRecordJson(const RunArgs& args, double steal_fraction);

// ---- files ------------------------------------------------------------------

uint64_t FileSize(const std::string& path);
/// A deep copy of an in-memory lake (Corpus itself is move-only).
mate::Corpus CopyCorpus(const mate::Corpus& corpus);
/// Encoded cell bytes of every table (the lake's user data).
uint64_t LakeCellBytes(const mate::Corpus& corpus);

// ---- traced run -------------------------------------------------------------

/// Self time per span name, summed over every folded trace.
class SpanTotals {
 public:
  void Add(const std::vector<mate::TraceSpan>& spans);
  /// Folds one slow-query log line (QueryTrace::ToJsonLine's format);
  /// false when the line does not parse.
  bool AddJsonLine(std::string_view line);
  /// Summed self time of the named spans, in ms.
  double SelfMs(std::initializer_list<std::string_view> names) const;
  uint64_t traces() const { return traces_; }

 private:
  std::map<std::string, uint64_t, std::less<>> self_us_;
  uint64_t traces_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
