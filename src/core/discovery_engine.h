// Batch results and the per-batch stats the paper reports over query
// *sets* (Fig. 4-6, Tables 1-3). mate::Session::DiscoverBatch and RunBatch
// fan a batch out over the session pool with one ThreadPool::ForkJoin,
// land each result in the slot of its query's position and fold the
// results into BatchStats here, so the counters are deterministic at any
// thread count (timings aside).

#ifndef MATE_CORE_DISCOVERY_ENGINE_H_
#define MATE_CORE_DISCOVERY_ENGINE_H_

#include <string>
#include <vector>

#include "core/mate.h"

namespace mate {

/// Aggregate instrumentation over one batch. Counter sums are accumulated
/// in query-index order, so they are deterministic at any thread count;
/// wall/latency figures are the only nondeterministic fields.
struct BatchStats {
  size_t queries = 0;
  unsigned num_threads = 1;

  double wall_seconds = 0.0;         // end-to-end batch time
  double total_query_seconds = 0.0;  // sum of per-query runtimes

  // Per-query latency distribution (seconds), computed through a
  // LatencyHistogram over integer microseconds — the same HDR layout and
  // nearest-rank rule (PercentileSorted's definition) the serving layer
  // reports, so the two surfaces can never disagree. max is exact; the
  // percentiles carry the histogram's bounded relative error (at most
  // 1/16 above the sorted-vector answer). Defined for 0/1/2-query batches
  // too. A cached query contributes the runtime recorded when its result
  // was originally computed, not its (near-zero) serving time;
  // wall_seconds is the honest end-to-end figure.
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;

  // Work counters summed over queries.
  uint64_t pl_items_fetched = 0;
  uint64_t rows_checked = 0;
  uint64_t rows_skipped = 0;
  uint64_t rows_sent_to_verification = 0;
  uint64_t rows_true_positive = 0;

  // Result-cache traffic for this batch (always 0 outside a cache-enabled
  // mate::Session). A duplicate query inside one batch counts as a hit:
  // it is served by copying the leader's result instead of recomputing.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // Intra-query parallelism traffic (core/query_executor.h): queries that
  // ran the sharded executor (shards_used > 1), the shards they fanned out
  // over in total, and the widest per-query fan-out seen. A cache hit
  // reports the shape recorded when its result was originally computed.
  uint64_t intra_parallel_queries = 0;
  uint64_t intra_shards_total = 0;
  uint64_t max_fanout_threads = 1;

  double QueriesPerSecond() const {
    return wall_seconds > 0.0 ? static_cast<double>(queries) / wall_seconds
                              : 0.0;
  }

  std::string ToString() const;
};

struct BatchResult {
  /// results[i] corresponds to the i-th input query.
  std::vector<DiscoveryResult> results;
  BatchStats stats;
};

/// Folds per-query results (in query-index order) plus a measured wall time
/// into BatchStats.
BatchStats AggregateBatchStats(const std::vector<DiscoveryResult>& results,
                               double wall_seconds, unsigned num_threads);

}  // namespace mate

#endif  // MATE_CORE_DISCOVERY_ENGINE_H_
