#include "core/discovery_engine.h"

#include <algorithm>
#include <sstream>

#include "util/latency_histogram.h"

namespace mate {

BatchStats AggregateBatchStats(const std::vector<DiscoveryResult>& results,
                               double wall_seconds, unsigned num_threads) {
  BatchStats stats;
  stats.queries = results.size();
  stats.num_threads = num_threads;
  stats.wall_seconds = wall_seconds;
  // One histogram feeds the percentile fields — the same HDR layout and
  // nearest-rank rule the serving layer reports (util/latency_histogram.h),
  // so batch and server percentiles can never disagree on definition.
  // Latencies record as integer microseconds: exact max, and percentiles
  // within the histogram's 1/16 relative bound (cross-checked against
  // PercentileSorted in tests/obs_test.cpp).
  LatencyHistogram latency_us;
  for (const DiscoveryResult& r : results) {
    stats.total_query_seconds += r.stats.runtime_seconds;
    stats.pl_items_fetched += r.stats.pl_items_fetched;
    stats.rows_checked += r.stats.rows_checked;
    stats.rows_skipped += r.stats.rows_skipped;
    stats.rows_sent_to_verification += r.stats.rows_sent_to_verification;
    stats.rows_true_positive += r.stats.rows_true_positive;
    if (r.stats.shards_used > 1) {
      ++stats.intra_parallel_queries;
      stats.intra_shards_total += r.stats.shards_used;
    }
    stats.max_fanout_threads =
        std::max(stats.max_fanout_threads, r.stats.fanout_threads);
    latency_us.Record(
        static_cast<uint64_t>(r.stats.runtime_seconds * 1e6));
  }
  stats.latency_p50_s = static_cast<double>(latency_us.Percentile(0.50)) / 1e6;
  stats.latency_p90_s = static_cast<double>(latency_us.Percentile(0.90)) / 1e6;
  stats.latency_p99_s = static_cast<double>(latency_us.Percentile(0.99)) / 1e6;
  stats.latency_max_s = static_cast<double>(latency_us.max()) / 1e6;
  return stats;
}

std::string BatchStats::ToString() const {
  std::ostringstream os;
  os << "queries=" << queries << " threads=" << num_threads
     << " wall=" << wall_seconds << "s (" << QueriesPerSecond()
     << " q/s, cpu " << total_query_seconds << "s)"
     << " latency p50=" << latency_p50_s << "s p90=" << latency_p90_s
     << "s p99=" << latency_p99_s << "s max=" << latency_max_s << "s"
     << " pl_items=" << pl_items_fetched << " rows_checked=" << rows_checked
     << " rows_skipped=" << rows_skipped
     << " rows_verified=" << rows_sent_to_verification
     << " tp_rows=" << rows_true_positive;
  if (cache_hits + cache_misses > 0) {
    os << " cache_hits=" << cache_hits << " cache_misses=" << cache_misses;
  }
  if (intra_parallel_queries > 0) {
    os << " intra_parallel_queries=" << intra_parallel_queries
       << " shards_total=" << intra_shards_total
       << " max_fanout=" << max_fanout_threads;
  }
  return os.str();
}

}  // namespace mate
