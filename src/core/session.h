// mate::Session — the library's front door. MATE (§2) frames discovery as
// a *service* over a fixed indexed corpus; Session is that service shaped
// as one owning object:
//
//   * owns the corpus + inverted index pair (loaded from disk, adopted
//     in-memory, or built on open) and validates at Open that they match;
//   * opens *phased* when loading an index from disk: Open returns once
//     the header, dictionary, and corpus/index cross-validation are done,
//     the mmap'd posting region and super keys stream in on a loader
//     thread, and the first Discover blocks on a readiness latch
//     (WaitUntilReady / SessionOptions::eager_load give explicit control);
//   * loads the corpus *lazily* from its file: Open parses only the shape
//     header (stats + table directory) over the mmap'd image. Queries
//     never read cells — join verification answers from the index's
//     posting lists (core/joinability.h), and so does re-keying
//     (ResetHash) — so a table's cells parse only when Save, §5.4
//     maintenance or a direct corpus() reader touches it
//     (WaitCorpusResident / SessionOptions::eager_corpus give explicit
//     control). Corpus format v3 is the only one: an older image fails
//     Open with kCorruption "unsupported version N (expected 3)";
//   * owns one long-lived work-stealing ThreadPool reused across batches
//     and fans a single large query's sharded evaluation out over the same
//     pool (core/query_executor.h — intra-query parallelism);
//   * owns the keyed result cache (query fingerprint -> DiscoveryResult,
//     LRU under a byte budget) with an explicit InvalidateCache() hook for
//     index updates;
//   * validates every query upfront (QuerySpec) and reports failures as
//     Status/Result in the repo's Arrow/RocksDB idiom instead of the UB a
//     malformed key spec used to reach.
//
// Every binary (CLI, benches, examples) goes through Session; the raw
// MateSearch class remains an internal implementation detail.
//
// Thread-safety: Discover, DiscoverBatch, EstimatePlItems and RunBatch may
// run concurrently from any number of threads, a worker of the session's
// own pool included. Queries only read the index and the corpus shape,
// each fan-out waits only on its own work in progress (ThreadPool::ForkJoin,
// whose caller helps), and the result cache is internally synchronized, as
// are InvalidateCache and ConfigureCachePartition. ResetHash,
// SetNumThreads, ConfigureCache and the mutable_* accessors need an
// otherwise idle session; a Debug build asserts that no query call is in
// flight when the first three run.
//
// Typical use:
//
//   SessionOptions options;
//   options.corpus_path = "lake.corpus";
//   options.index_path = "lake.index";
//   options.num_threads = 8;
//   auto session = Session::Open(std::move(options));
//   if (!session.ok()) { /* session.status() */ }
//   QuerySpec spec;
//   spec.table = &my_table;
//   spec.key_columns = {0, 1};
//   auto result = session->Discover(spec);

#ifndef MATE_CORE_SESSION_H_
#define MATE_CORE_SESSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/discovery_engine.h"
#include "core/result_cache.h"
#include "index/index_builder.h"
#include "storage/corpus.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mate {

class QueryTrace;  // src/obs/trace.h

/// One discovery request: the query table, the composite key, and the
/// engine options. Validated by Session before any work happens.
struct QuerySpec {
  /// Must outlive the Discover/DiscoverBatch call.
  const Table* table = nullptr;
  std::vector<ColumnId> key_columns;
  DiscoveryOptions options;

  /// Result-cache partition this query reads and populates (multi-tenant
  /// serving: src/server/). Tenants never share cached entries, and each
  /// partition carries its own byte budget (ConfigureCachePartition).
  /// Execution-only in the same sense as the knobs below — it selects
  /// *where* a result is cached, never what is computed — and the empty
  /// default is the classic shared partition.
  std::string tenant;

  // ---- execution-only knobs (core/query_executor.h) ------------------
  // They change how fast the answer is computed, never the answer, and are
  // therefore excluded from the result-cache fingerprint: the same logical
  // query hits the cache at any parallelism setting.

  /// Intra-query fan-out. 0 = auto: the whole session pool, but only when
  /// the query's estimated PL traffic clears
  /// QueryExecutor::kAutoParallelMinItems; 1 = serial (the pre-sharding
  /// path); N > 1 = fan out over min(N, pool width) workers.
  unsigned intra_query_threads = 0;
  /// Evaluation shards; 0 derives one per resolved worker. Explicit values
  /// are honored even at width 1 (shards then run sequentially).
  size_t intra_query_shards = 0;

  /// Optional span recorder (src/obs/trace.h): when set, Discover records
  /// its pipeline phases (validate -> readiness wait -> cache lookup ->
  /// execute [prepare / per-shard fetch / rule-1 prune / row loop /
  /// merge]) into it, rooted under the trace's attach parent.
  /// Null — the default — keeps every instrumentation site a single
  /// pointer check. Must outlive the call; execution-only like the knobs
  /// above, so it never enters the cache fingerprint.
  QueryTrace* trace = nullptr;
};

struct SessionOptions {
  SessionOptions() = default;
  SessionOptions(SessionOptions&&) = default;
  SessionOptions& operator=(SessionOptions&&) = default;

  // ---- corpus source (exactly one) ----------------------------------
  /// Load the corpus from a SaveCorpus file.
  std::string corpus_path;
  /// ... or adopt an in-memory corpus.
  std::optional<Corpus> corpus;

  // ---- index source (at most one; optional) -------------------------
  /// Load the index from a SaveIndex file.
  std::string index_path;
  /// ... or adopt an index already built over the corpus. `index_family`
  /// tells the session which hash family it carries (for Save/re-keying).
  std::unique_ptr<InvertedIndex> index;
  HashFamily index_family = HashFamily::kXash;
  /// ... or build one from the corpus with `build_options`. Without any of
  /// the three the session is corpus-only (stats/curation workloads) and
  /// Discover fails with InvalidArgument.
  bool build_index = false;
  IndexBuildOptions build_options;

  // ---- service knobs ------------------------------------------------
  /// Long-lived discovery pool (IndexBuilder convention: 0 = hardware
  /// concurrency, 1 = serial on the calling thread).
  unsigned num_threads = 1;
  /// Path-based index loads are *phased* by default: Open returns once the
  /// corpus, index header + value dictionary, and the corpus/index
  /// cross-validation are done, while the posting lists and super keys
  /// stream in from the mmap'd file on a dedicated loader thread. The first
  /// Discover/DiscoverBatch blocks on the readiness latch, so results are
  /// bit-identical to a blocking open — only the time at which a load
  /// error in the bulky sections surfaces moves (to WaitUntilReady / the
  /// first query, as kCorruption). Set true to force the old fully
  /// blocking Open: it returns only with the index hot and every load
  /// error surfaces from Open itself.
  bool eager_load = false;
  /// Path-based corpus loads are *lazy* by default: Open mmaps the file,
  /// parses only the stats header and table directory, and cross-validates
  /// shape against the index with zero cell parsing. Queries never
  /// materialize cells; a table's cells parse on the first access that
  /// needs them (Save, maintenance, corpus().table()). Results
  /// are bit-identical to an eager open. Set true to materialize every
  /// table before Open returns (LoadCorpus: the same reader and decoder,
  /// drained up front), so every corpus error surfaces from Open itself.
  /// Either way the file must be corpus format v3; other versions fail
  /// Open with kCorruption.
  bool eager_corpus = false;
  /// Corpus residency byte budget (0 = unlimited, the classic behavior).
  /// With a budget armed, a lazily opened corpus behaves like a buffer
  /// pool for the work that materializes cells: after Open and Save the
  /// least-recently-touched tables are evicted until the resident cell
  /// bytes fit the budget again, and the corpus mmap stays alive for
  /// re-parses. Queries and ResetHash read no cells, so they neither
  /// materialize nor evict. Budgets only govern path-based lazy corpora:
  /// adopted/eager/built corpora have no backing file to re-parse evicted
  /// tables from.
  uint64_t corpus_budget_bytes = 0;
  /// Result-cache byte budget; 0 disables caching entirely.
  size_t cache_bytes = kDefaultCacheBytes;
  /// Cross-check that index super keys cover exactly the corpus's tables
  /// and rows (catches corpus/index file mix-ups at Open instead of as
  /// out-of-bounds reads mid-query).
  bool validate = true;

  static constexpr size_t kDefaultCacheBytes = 64u << 20;  // 64 MB
};

class Session {
 public:
  /// Opens a session per `options`. Fails with:
  ///   * InvalidArgument — no corpus source, or two of them;
  ///   * IOError / Corruption — unreadable or malformed files;
  ///   * Corruption — index does not match the corpus (table/row skew).
  /// Under the default phased load (see SessionOptions::eager_load) the
  /// index's posting lists and super keys stream in after Open returns;
  /// corruption confined to those trailing sections surfaces as
  /// kCorruption from WaitUntilReady / the first query instead of here.
  static Result<Session> Open(SessionOptions options);

  /// Quiesces any in-flight phased load (joins the loader thread) before
  /// tearing the index down.
  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- readiness ----------------------------------------------------

  /// Blocks until the phased load (if any) has finished streaming the
  /// posting lists and super keys, and returns its status (kCorruption on
  /// a malformed posting/super-key region). Returns OK immediately for
  /// eager, built, adopted, and corpus-only sessions.
  /// Discover/DiscoverBatch/Save/ResetHash all call this themselves; call
  /// it directly to surface load errors early or before touching index()
  /// by hand.
  Status WaitUntilReady() const;

  /// Non-blocking readiness probe: true once the index (if any) is fully
  /// loaded — whether the load succeeded or failed (WaitUntilReady tells
  /// which).
  bool index_ready() const;

  /// Materializes every corpus table and returns the corpus's sticky load
  /// status (kCorruption naming the table, section, and byte offset on a
  /// malformed cell blob). Returns OK immediately for eager, adopted, and
  /// built corpora. Queries and ResetHash do NOT wait on this (they read
  /// no cells); Save does.
  Status WaitCorpusResident() const;

  /// Non-blocking probe: true once every corpus table is resident.
  bool corpus_resident() const;

  // ---- queries ------------------------------------------------------

  /// Checks `spec` against the session's corpus and index; returns
  /// InvalidArgument naming the offending column/table id on: null or
  /// key-less table, duplicate or out-of-range key columns, k <= 0, and
  /// exclude/restrict ids outside the corpus.
  Status ValidateQuery(const QuerySpec& spec) const;

  /// Top-k discovery for one query (validated, cached). Runs the sharded
  /// intra-query executor on the session pool per the spec's
  /// intra_query_threads/intra_query_shards knobs — results are
  /// bit-identical at every setting. A cache hit returns the originally
  /// computed DiscoveryResult verbatim (including the execution shape its
  /// stats recorded).
  Result<DiscoveryResult> Discover(const QuerySpec& spec);

  /// Pre-execution cost estimate of one query: the PL-item-traffic figure
  /// the executor's auto-parallel gate compares against
  /// QueryExecutor::kAutoParallelMinItems, surfaced *before* execution so
  /// an admission layer (src/server/) can steer the spec's
  /// intra_query_threads/intra_query_shards knobs per query. Validates the
  /// spec and blocks on index readiness exactly like Discover; cheap
  /// relative to execution (one init-column pass, one index probe per
  /// distinct value). The estimate never affects results — it only
  /// predicts how much work Discover would do.
  Result<uint64_t> EstimatePlItems(const QuerySpec& spec) const;

  /// Batch discovery over the session pool. All specs are validated before
  /// any query runs (the error names the failing spec's position). With
  /// the cache enabled, duplicate specs inside the batch compute once and
  /// count as hits; batch-level hit/miss traffic lands in BatchStats.
  /// One ForkJoin over the queries left to compute runs each of them
  /// exactly as Discover would, knobs included, so a query's shards nest
  /// inside the batch's fan-out on the one pool and result i equals
  /// Discover(specs[i]), work counters and execution shape included.
  /// Duplicate specs that differ only in execution knobs share one
  /// computation (the leader's knobs win — the knobs are absent from the
  /// fingerprint by design).
  Result<BatchResult> DiscoverBatch(const std::vector<QuerySpec>& specs);

  /// Uncached generic fan-out of `run_one(i)` for i in [0, n) over the
  /// session pool — the substrate bench runners use for baseline systems
  /// (SCR/MCR/JOSIE share the pool but must not share MATE's cache).
  /// `run_one` must be safe to call concurrently; it may call this
  /// session's queries, which then fan out on the same pool.
  BatchResult RunBatch(size_t n,
                       const std::function<DiscoveryResult(size_t)>& run_one);

  // ---- cache --------------------------------------------------------

  /// Drops every cached result in every tenant partition. Call after
  /// mutating the corpus or index through the mutable accessors below —
  /// an index edit invalidates all tenants' results alike.
  void InvalidateCache();

  /// Drops only `tenant`'s partition (the empty name is the shared default
  /// partition). Serving uses this for per-tenant resets; index/corpus
  /// mutation must keep using the all-partition overload above.
  void InvalidateCache(std::string_view tenant);

  /// Cumulative cache counters summed over every partition (zeroed stats
  /// when the cache is disabled).
  ResultCacheStats cache_stats() const;

  /// One tenant partition's counters (zeroed when disabled or untouched).
  ResultCacheStats cache_partition_stats(std::string_view tenant) const;

  /// Creates or resizes `tenant`'s cache partition to `bytes` (evicting
  /// down when shrinking). Untouched tenants otherwise get the session
  /// cache's default byte budget on first use. No-op when caching is
  /// disabled.
  void ConfigureCachePartition(std::string_view tenant, size_t bytes);

  bool cache_enabled() const { return cache_ != nullptr; }

  /// Replaces the cache with a fresh one of `bytes` capacity (0 disables);
  /// previously cached results and current-content counters are dropped.
  void ConfigureCache(size_t bytes);

  // ---- ownership & maintenance --------------------------------------

  const Corpus& corpus() const { return corpus_; }
  /// Residency gauges/counters of the corpus store (budget, resident and
  /// peak bytes, eviction + rematerialization traffic). Queries leave them
  /// unchanged.
  ResidencyStats corpus_residency() const { return corpus_.residency(); }
  bool has_index() const { return index_ != nullptr; }
  /// Precondition: has_index() — and, after a phased open, that
  /// WaitUntilReady() returned OK (the loader may still be streaming
  /// postings into the object otherwise).
  const InvertedIndex& index() const { return *index_; }

  /// Mutable access for §5.4 maintenance flows. The cache is NOT
  /// implicitly invalidated — call InvalidateCache() once the edit batch
  /// is complete (stale entries otherwise serve pre-edit results). Edit
  /// the index alongside the corpus: verification trusts the posting
  /// lists. Corpus::mutable_table materializes and pins the edited table;
  /// a materialization error is latched in corpus().load_status().
  /// mutable_index() has the same WaitUntilReady precondition as index().
  Corpus* mutable_corpus() { return &corpus_; }
  InvertedIndex* mutable_index() { return index_.get(); }

  /// Swaps the super-key hash (re-keying on the session pool's width) and
  /// invalidates the cache — every tenant partition, not just the shared
  /// one: re-keying changes what the index computes for all tenants alike.
  /// Re-keying reads the posting lists only, so it neither materializes
  /// the corpus nor evicts from it. The registry overload parameterizes
  /// the hash from the session's corpus stats, like the index builder
  /// does.
  Status ResetHash(HashFamily family, size_t hash_bits);
  Status ResetHash(HashFamily family, std::unique_ptr<RowHashFunction> hash);

  /// Persists the corpus (and, when present, the index) for a later
  /// path-based Open.
  Status Save(const std::string& corpus_path,
              const std::string& index_path) const;

  ThreadPool* pool() { return pool_.get(); }
  unsigned num_threads() const { return pool_->num_threads(); }
  /// Replaces the (idle) pool with one of `num_threads` workers; keeps it
  /// when it already has exactly that many.
  void SetNumThreads(unsigned num_threads);

  /// Stats of the corpus the session serves: from the index build when the
  /// session built its index, from the index file when it loaded one, and
  /// computed by a corpus scan otherwise.
  const CorpusStats& corpus_stats() const { return corpus_stats_; }
  HashFamily hash_family() const { return hash_family_; }
  /// Build cost/size details; meaningful when Open built the index.
  const IndexBuildReport& build_report() const { return build_report_; }

 private:
  Session() = default;

  /// Blocks until the loader thread can no longer touch this session's
  /// index: waits the readiness latch and joins the thread, if any. Called
  /// before destruction / move-assignment tears the index down.
  void QuiesceLoad() const;

  /// Canonical cache key: a 128-bit digest of the key-column contents plus
  /// every result-affecting option — and nothing execution-only (thread or
  /// shard knobs). Precondition: spec validated.
  std::string FingerprintQuery(const QuerySpec& spec) const;

  /// Uncached execution of one validated spec through the sharded executor
  /// on the session pool, per the spec's intra-query knobs. Discover and
  /// DiscoverBatch both run every query through here.
  DiscoveryResult RunQuery(const QuerySpec& spec);

  /// Query calls in flight (Discover, DiscoverBatch, EstimatePlItems,
  /// RunBatch), so that ResetHash, SetNumThreads and ConfigureCache can
  /// assert an idle session in Debug builds. A moved-to session starts
  /// with none in flight (moving a session mid-query is already an
  /// error).
  struct QueriesInFlight {
    QueriesInFlight() = default;
    QueriesInFlight(QueriesInFlight&&) noexcept {}
    QueriesInFlight& operator=(QueriesInFlight&&) noexcept { return *this; }
    mutable std::atomic<int> count{0};
  };

  Corpus corpus_;
  std::unique_ptr<InvertedIndex> index_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ResultCache> cache_;  // null when disabled
  CorpusStats corpus_stats_;
  HashFamily hash_family_ = HashFamily::kXash;
  IndexBuildReport build_report_;
  // Phase-2 streaming state of a phased open (null otherwise): the loader
  // thread shares it via shared_ptr, so it survives Session moves.
  struct PendingLoad;
  std::shared_ptr<PendingLoad> pending_;
  QueriesInFlight queries_in_flight_;
};

}  // namespace mate

#endif  // MATE_CORE_SESSION_H_
