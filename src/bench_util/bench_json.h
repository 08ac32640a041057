// Machine-readable bench output: every bench that takes --json=PATH writes
// its metrics through this writer, one flat record per metric, so CI can
// merge all bench outputs into a single BENCH_*.json trajectory file
// (tools/bench_report.py) and diff metric *presence* across commits.
//
// One record:
//
//   {"bench": "cold_start", "scenario": "eager", "metric": "open",
//    "value": 0.0123, "unit": "s", "threads": 4, "shards": 1}
//
// The (bench, scenario, metric, unit) tuple identifies a metric across
// runs; `value` is the measurement and is never compared by CI (hardware
// varies), `threads`/`shards` record the execution shape the bench ran
// with. Keep scenario/metric names stable: renaming one reads as a metric
// disappearing from the trajectory.

#ifndef MATE_BENCH_UTIL_BENCH_JSON_H_
#define MATE_BENCH_UTIL_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mate {

/// Collects bench metric records and writes them as a JSON document:
/// {"schema_version": 1, "records": [...]}.
class BenchJsonWriter {
 public:
  /// `bench` names the binary (e.g. "cold_start"); `threads` is the
  /// configured worker count recorded on every record.
  BenchJsonWriter(std::string bench, unsigned threads);

  /// Appends one metric record. `shards` defaults to 1 (serial execution).
  void Add(std::string_view scenario, std::string_view metric, double value,
           std::string_view unit, uint64_t shards = 1);

  /// Appends one serving-load record: like Add, but the record also carries
  /// the tenant count and the open-loop arrival rate (requests/s) the
  /// measurement ran under — bench/serving_tail_latency emits these so the
  /// trajectory records the load shape, not just the latency numbers.
  void AddWithLoad(std::string_view scenario, std::string_view metric,
                   double value, std::string_view unit, uint64_t tenants,
                   double arrival_rate, uint64_t shards = 1);

  /// Serializes the records to `path` (no-op returning true when `path` is
  /// empty, so benches can call it unconditionally with args.json_path).
  /// On an IO failure prints to stderr and returns false.
  bool WriteTo(const std::string& path) const;

  std::string ToJson() const;

 private:
  struct Record {
    std::string scenario;
    std::string metric;
    double value;
    std::string unit;
    uint64_t shards;
    // Serving-load shape (AddWithLoad); absent from the JSON when unset.
    bool has_load = false;
    uint64_t tenants = 0;
    double arrival_rate = 0.0;
  };

  std::string bench_;
  unsigned threads_;
  std::vector<Record> records_;
};

}  // namespace mate

#endif  // MATE_BENCH_UTIL_BENCH_JSON_H_
