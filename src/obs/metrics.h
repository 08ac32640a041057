// MetricsRegistry — process-wide named counters, gauges, and histograms
// with a Prometheus text exposition renderer.
//
// Design goals, in order:
//
//   * Hot-path cost. A Counter increment is ONE relaxed atomic add into a
//     cache-line-padded cell striped per thread, so the dispatchers and a
//     hundred connection threads bumping the same counter never contend on
//     one line. Gauges are a single atomic store. Histograms stripe a
//     LatencyHistogram (util/latency_histogram.h) per cell behind a small
//     per-cell mutex — Record is a short critical section on an almost
//     always uncontended lock, and Snapshot() merges cells losslessly.
//   * Register once, update forever. Registration returns a stable pointer
//     owned by the registry; re-registering the same (name, labels) pair
//     returns the SAME cell (idempotent, so two subsystems can share a
//     series), while re-registering a name under a different metric type
//     returns nullptr — a programming error surfaced loudly in tests.
//   * Deterministic exposition. RenderPrometheusText() walks families in
//     name order and series in registration order, emitting `# HELP` /
//     `# TYPE` headers and escaping label values per the Prometheus text
//     format (backslash, double quote, newline), so a golden test can pin
//     the page byte-for-byte.
//
// Totals are exact: relaxed atomics lose no increments (TSan-verified in
// tests/obs_test.cpp), and the histogram cells merge without loss.
//
// There is a process-wide MetricsRegistry::Global(), but components that
// want a self-consistent page per instance (MateServer) own their own
// registry — tests and benches then see counts scoped to one server
// lifetime instead of process history.

#ifndef MATE_OBS_METRICS_H_
#define MATE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/latency_histogram.h"

namespace mate {

/// Ordered (name, value) label pairs; values are escaped at render time.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count. Increment is wait-free: one
/// relaxed fetch_add into the calling thread's stripe.
class Counter {
 public:
  void Increment(uint64_t delta = 1);
  /// Exact sum over all stripes.
  uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;

  static constexpr size_t kStripes = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kStripes];
};

/// Point-in-time level (queue depth, resident bytes). Set/Add are single
/// relaxed atomic ops.
class Gauge {
 public:
  void Set(int64_t value) { v_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;

  std::atomic<int64_t> v_{0};
};

/// Distribution of uint64 samples (callers record microseconds), rendered
/// as a Prometheus histogram whose `le` bounds and `_sum` are scaled by
/// `scale` (1e-6 turns microsecond records into a `_seconds` series).
class Histogram {
 public:
  void Record(uint64_t value);
  /// Lossless merge of every stripe.
  LatencyHistogram Snapshot() const;

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  static constexpr size_t kStripes = 4;
  struct alignas(64) Cell {
    mutable std::mutex mu;
    LatencyHistogram h;
  };
  Cell cells_[kStripes];
};

class MetricsRegistry {
 public:
  /// Exposition `le` ladder for microsecond-recorded latency histograms:
  /// 100us .. 10s in decades (rendered in seconds under scale 1e-6).
  static const std::vector<uint64_t>& DefaultLatencyBucketsUs();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry.
  static MetricsRegistry& Global();

  /// Registers (or finds) a series. The pointer is owned by the registry
  /// and stable for its lifetime. Same (name, labels) -> same cell; same
  /// name under a different type -> nullptr.
  Counter* RegisterCounter(std::string_view name, std::string_view help,
                           MetricLabels labels = {});
  Gauge* RegisterGauge(std::string_view name, std::string_view help,
                       MetricLabels labels = {});
  /// `buckets` are inclusive upper bounds in the RECORDED unit; each is
  /// rendered as `le="<bucket * scale>"` (plus an implicit +Inf).
  Histogram* RegisterHistogram(std::string_view name, std::string_view help,
                               double scale = 1.0,
                               std::vector<uint64_t> buckets = {},
                               MetricLabels labels = {});

  /// The Prometheus text exposition page (version 0.0.4 text format).
  std::string RenderPrometheusText() const;

 private:
  enum class MetricType { kCounter, kGauge, kHistogram };

  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    double scale = 1.0;
    std::vector<uint64_t> buckets;   // histogram families only
    std::vector<Series> series;      // registration order
  };

  Series* FindOrCreateSeries(std::string_view name, std::string_view help,
                             MetricType type, MetricLabels* labels);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
};

/// Escapes a Prometheus label value: backslash, double quote, and newline.
std::string EscapeLabelValue(std::string_view value);

}  // namespace mate

#endif  // MATE_OBS_METRICS_H_
