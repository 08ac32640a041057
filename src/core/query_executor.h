// Intra-query parallel execution of Algorithm 1. A batch
// (Session::DiscoverBatch) scales across *many* queries; this executor
// scales *one* query — the paper's hardest workloads (Fig. 4/6, the OD
// 10k-row sets) are a single giant query that a batch cannot help. The two
// nest: a batch runs each of its queries through this executor on the same
// pool.
//
// Per-candidate-table evaluation in Algorithm 1 is independent up to the
// shared top-k heap, so the executor:
//
//   1. partitions the table-id space into S weight-balanced shards
//      (index/index_shards.h);
//   2. fans shard tasks over the caller's thread pool — each worker fetches
//      its shard's slice of every probed posting list (one binary search
//      per PL; postings are sorted by table id), groups the slices' runs
//      (one init value's entries inside one table) by table into one
//      buffer (a counting sort on table id), marks which candidates post
//      each combo's rarest value (the semi-join,
//      DiscoveryOptions::use_semi_join), and runs the per-table
//      evaluation loop with a *local* TopKHeap and local §6.2 pruning (a
//      local heap's j_k is always <= the global j_k, so local pruning
//      never drops a global top-k table);
//   3. advances the shards in lockstep rounds of ~k tables total: between
//      rounds, a barrier folds every local heap into one global heap and
//      publishes its k-th score as a shared pruning *floor* — the serial
//      heap's evolving j_k over the evaluated prefix. Without it, S local
//      heaps must each fill before §6.2 fires and then prune against much
//      weaker thresholds (at full OD scale, every candidate table gets
//      evaluated); with it, total work stays within a few percent of
//      serial. The floor never exceeds the final j_k, so pruning with it
//      is safe, and round boundaries depend only on the shard plan, never
//      the schedule;
//   4. merges the S local heaps deterministically — score desc, table-id
//      asc, the exact tie-break of the serial heap — into the final
//      top-k.
//
// Determinism guarantee: `top_k` (table ids, joinability scores, column
// mappings) is bit-identical to serial execution at every shard x thread
// combination. Fetch-side counters (pl_items_fetched, candidate_tables)
// are identical too. The *work* counters (rows_checked, pruning counts,
// value_comparisons) measure work actually done, which legitimately shrinks
// or grows with the shard plan — pruning information is not shared across
// shards mid-flight — but for a fixed shard count they are deterministic at
// any thread count (shard outcomes merge in shard order).
//
// MateSearch::Discover (mate.h) is the serial special case: one shard, no
// pool, same code path — so serial and sharded execution cannot drift.

#ifndef MATE_CORE_QUERY_EXECUTOR_H_
#define MATE_CORE_QUERY_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "core/mate.h"
#include "obs/trace.h"

namespace mate {

class ThreadPool;

/// Execution-only knobs: they decide how fast the answer is computed, never
/// what it is. Keep them out of result-cache fingerprints.
struct ExecutorOptions {
  /// Fan-out width for one query. 0 = auto: use the whole pool, but only
  /// when the query's estimated PL traffic clears kAutoParallelMinItems
  /// (small queries would pay fork/join for nothing); 1 = serial; N > 1 =
  /// fan out over min(N, pool width) workers.
  unsigned intra_query_threads = 0;

  /// Evaluation shard count. 0 derives one shard per resolved worker; an
  /// explicit value is honored even at width 1 (shards then run
  /// sequentially — determinism tests sweep exactly this).
  size_t num_shards = 0;

  /// Optional span recorder (src/obs/trace.h). Null — the default —
  /// disables tracing; every instrumentation site is then a single pointer
  /// check. Executor phase spans (prepare / fetch / evaluate / merge and
  /// their per-shard children) root under `trace_parent`. Tracing never
  /// changes the result, so it stays out of cache fingerprints like every
  /// other field here.
  QueryTrace* trace = nullptr;
  uint32_t trace_parent = QueryTrace::kNoParent;
};

class QueryExecutor {
 public:
  /// Candidate-item estimate at or above which auto mode (intra_query_threads
  /// == 0) fans out. Below it the fork/join + lost cross-candidate pruning
  /// costs more than the parallelism buys.
  static constexpr uint64_t kAutoParallelMinItems = 4096;

  /// Both `corpus` and `index` must outlive the executor; the index must
  /// have been built over `corpus`.
  QueryExecutor(const Corpus* corpus, const InvertedIndex* index)
      : corpus_(corpus), index_(index) {}

  /// Top-k discovery for one query. `pool` may be null (forces serial).
  /// Any number of threads may call Discover at once, over the same pool
  /// or none, workers of `pool` included; each call waits for its own
  /// shard work only (ThreadPool::ForkJoin). DiscoveryStats records the
  /// resolved execution shape in shards_used / fanout_threads.
  DiscoveryResult Discover(const Table& query,
                           const std::vector<ColumnId>& key_columns,
                           const DiscoveryOptions& options,
                           const ExecutorOptions& exec,
                           ThreadPool* pool) const;

  /// The auto-parallel gate's PL-traffic estimate, surfaced *before*
  /// execution: the summed size of the posting lists the query's distinct
  /// normalized init-column values resolve to, over the rows whose key
  /// values are all non-empty — exactly the PL items Discover fetches and
  /// its auto mode compares against kAutoParallelMinItems, from the same
  /// key-combo pass, probes and init choice. Cheap relative to execution
  /// (one pass over the key cells plus one index probe per distinct key
  /// value; no super-key hashing, no PL scan), so an admission layer can
  /// afford it per dequeue to steer fan-out (src/server/).
  uint64_t EstimatePlItems(const Table& query,
                           const std::vector<ColumnId>& key_columns,
                           const DiscoveryOptions& options) const;

 private:
  const Corpus* corpus_;
  const InvertedIndex* index_;
};

}  // namespace mate

#endif  // MATE_CORE_QUERY_EXECUTOR_H_
