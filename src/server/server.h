// Resident multi-tenant serving front-end: a long-lived TCP server that
// multiplexes many client connections over ONE shared Session, so the
// corpus, inverted index, thread pool, and result cache are paid for once
// and amortized across every tenant.
//
// Threading model. Queries only read the index, and Session::Discover may
// run on many threads at once, so the server runs a pool of D dispatcher
// threads over one bounded admission queue, each executing the query it
// dequeued. D is derived, never configured: D = max(1,
// hardware_concurrency / session pool width). A session pool as wide as
// the machine (--threads 0) gives D = 1, one query at a time with all
// cores fanning it out; a serial pool (--threads 1, the default) gives one
// dispatcher per core, each query running on its own dispatcher. Each
// accepted connection gets a reader thread that decodes frames, runs
// admission control, parks on a future until a dispatcher fulfills it,
// and writes the response. STATS, PING and METRICS are answered inline on
// the connection thread (observability must keep working while the queue
// is saturated — that is when you need it). Queueing delay is therefore
// real and visible in the measured latency, which is what an open-loop
// tail-latency harness needs.
//
// Admission control. A QUERY is admitted only when the queue holds fewer
// than `max_queue_depth` pending entries and the server is not draining;
// otherwise it is shed immediately with Status::Overloaded (the client
// sees a well-formed error response, not a dropped connection). Accepts
// beyond `max_connections` live connections are shed the same way: one
// kOverloaded frame, then close. Stop() drains gracefully: stop
// accepting, shed new queries, finish every admitted in-flight query,
// then join. Connection threads deregister themselves on exit and their
// handles are reaped as the server runs, so connection churn does not
// accumulate dead threads or fd slots.
//
// Multi-tenancy. The tenant string on each request selects a result-cache
// partition inside the shared Session (independent byte budgets,
// ConfigureCachePartition on first contact when `tenant_cache_bytes` is
// set) and a per-tenant request/admitted/shed counter row in STATS. The
// tenant string comes off the wire, so everything keyed on it is bounded:
// names longer than kMaxTenantNameBytes are rejected at decode, and once
// `max_tenants` distinct names hold dedicated rows, further tenants fold
// into one shared "__other__" row, metric series, and cache partition — an
// adversarial client cycling fresh names cannot grow the registry, the
// METRICS page, or the cache's partition map without bound.
//
// SLO-aware steering. With `steering` = kAuto a dispatcher picks each
// query's intra-query fan-out at dequeue time from (a) the queue depth,
// (b) the live served p99 vs `target_p99`, and (c) the session's
// pre-execution PL-traffic estimate: big queries fan out across the pool
// only when the server has headroom and degrade to serial under pressure,
// so one giant query cannot convoy the tail. The executor guarantees
// bit-identical results at every fan-out setting, and the knobs are
// excluded from the result-cache fingerprint — steering is invisible in
// every way except latency.

#ifndef MATE_SERVER_SERVER_H_
#define MATE_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/query_executor.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "util/latency_histogram.h"
#include "util/status.h"

namespace mate {

/// Per-query fan-out steering at the dispatcher's dequeue point.
enum class SteeringMode {
  /// Every query runs with the spec's default knobs (auto fan-out) — the
  /// pre-steering behavior.
  kOff,
  /// Choose intra_query_threads per query from queue depth, live p99 vs
  /// target_p99, and the pre-execution PL-traffic estimate.
  kAuto,
};

/// The tenant row every over-bound tenant folds into (satellite of
/// ServerOptions::max_tenants). Clients may also name it directly; it
/// behaves like any other tenant.
inline constexpr const char* kOverflowTenant = "__other__";

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks a free port, readable via port().
  uint16_t port = 0;

  /// Admission-control bound: QUERY requests beyond this many pending
  /// entries are shed with kOverloaded.
  size_t max_queue_depth = 64;

  /// Connection-level admission bound: accepts beyond this many live
  /// connections are shed with a single kOverloaded response frame and
  /// closed (a typed refusal, not a hung or dropped connect), bounding the
  /// thread-per-connection memory surface.
  size_t max_connections = 256;

  /// When non-zero, every tenant's result-cache partition is budgeted to
  /// this many bytes on first contact (0 keeps the session default).
  size_t tenant_cache_bytes = 0;

  /// Cardinality bound on everything keyed by the wire's tenant string:
  /// at most this many tenant rows (counters, labeled metric series, cache
  /// partitions) ever exist. Once dedicated rows would exceed the bound,
  /// new tenant names share the kOverflowTenant row. Values below 1 behave
  /// as 1 (everything folds).
  size_t max_tenants = 64;

  /// Fan-out steering policy at dequeue (kOff = pre-steering behavior).
  SteeringMode steering = SteeringMode::kOff;

  /// Served-latency SLO consulted by steering: while the live p99 is over
  /// this target, big queries degrade to serial. 0 disables the latency
  /// term (steering then reacts to queue depth alone).
  std::chrono::milliseconds target_p99{0};

  /// PL-traffic estimate below which a query counts as small and always
  /// runs serial under steering (fan-out would buy nothing — this is the
  /// executor's own auto gate). Tests lower it to exercise steering on toy
  /// corpora.
  uint64_t steering_min_items = QueryExecutor::kAutoParallelMinItems;

  /// How long Stop() waits for in-flight response writes before clobbering
  /// connections whose peers stopped reading (SHUT_RDWR unblocks a send
  /// stuck on a full buffer). Normal drains never wait this long — the
  /// grace only bounds the pathological stalled-client case.
  std::chrono::milliseconds drain_write_grace{5000};

  /// Slow-query tracing. When non-zero, every QUERY request carries a
  /// QueryTrace through its whole lifetime (read frame -> decode -> queue
  /// wait -> dispatch [the Discover pipeline's spans join here] -> write
  /// frame); requests whose end-to-end wall time exceeds this threshold
  /// dump that span tree as one JSONL line. 0 (the default) disables
  /// per-request tracing entirely — queries run on the null-sink path.
  std::chrono::milliseconds slow_query_threshold{0};

  /// Where slow-query JSONL lines go (appended, one object per line).
  /// Empty -> stderr.
  std::string slow_query_log_path;
};

/// Callbacks and overrides a test hands MateServer apart from its options,
/// so timing races can be made deterministic. An unset hook is skipped.
struct ServerTestHooks {
  /// Run by every dispatcher after each dequeue, before the query executes
  /// (a sleep here makes queue-full sheds deterministic under a small
  /// max_queue_depth).
  std::function<void()> before_dispatch;
  /// Dispatcher count; 0 derives it (see the threading model above). Tests
  /// that script a backlog pin it so it does not depend on the host.
  size_t dispatchers = 0;
  /// Run by Admit inside the (unlocked) first-admission
  /// ConfigureCachePartition step (a sleep here pins that concurrent
  /// admits and stats are not stalled behind it).
  std::function<void()> before_configure_partition;
};

class MateServer {
 public:
  /// `session` must be open (or opening) and outlive the server. Other
  /// threads may query it meanwhile, but must not mutate it.
  MateServer(Session* session, ServerOptions options,
             ServerTestHooks test_hooks = {});

  /// Not started or already stopped in the destructor -> no-op; otherwise
  /// performs the same graceful drain as Stop().
  ~MateServer();

  MateServer(const MateServer&) = delete;
  MateServer& operator=(const MateServer&) = delete;

  /// Binds, listens, and starts the accept thread and the dispatchers.
  /// IOError when the address cannot be bound.
  Status Start();

  /// Graceful drain: closes the listener, sheds queries not yet admitted,
  /// completes every admitted one, then joins all threads. Idempotent.
  void Stop();

  /// The bound port (resolves option `port` == 0). 0 before Start().
  uint16_t port() const { return port_; }

  /// Dispatcher threads Start() runs (the mate_dispatchers gauge).
  size_t dispatchers() const { return dispatchers_; }

  /// A consistent observability snapshot (same data the STATS verb serves).
  ServerStatsSnapshot stats() const;

  /// The Prometheus text page the METRICS verb serves: hot-path counters
  /// (queries admitted/shed/completed, per-verb request counts, latency
  /// histogram) plus point-in-time gauges (queue depth, connections, cache
  /// and residency figures) refreshed from the session at render time. The
  /// registry is per-server, so the page covers this server's lifetime.
  std::string RenderMetricsText();

 private:
  struct PendingQuery {
    QueryRequest request;
    std::promise<Result<DiscoveryResult>> promise;
    /// Admission time; served latency = completion − admission, so queue
    /// wait is part of every measured latency.
    std::chrono::steady_clock::time_point enqueue_time;
    /// Slow-query tracing handoff: the connection thread owns the trace
    /// and parks on the promise while the dispatcher records into it —
    /// the future's happens-before edges sequence all access.
    QueryTrace* trace = nullptr;
    uint32_t root_span = QueryTrace::kNoParent;
    uint32_t queue_wait_span = QueryTrace::kNoParent;
  };

  struct TenantCounters {
    uint64_t requests = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    /// The tenant's mate_tenant_requests_total series, registered on first
    /// contact (the tenant string is a label — escaping is the renderer's
    /// job).
    Counter* requests_metric = nullptr;
    /// Claimed (under queue_mu_) by the first would-be-admitted query so
    /// ConfigureCachePartition runs exactly once — outside the lock.
    bool partition_configured = false;
  };

  void AcceptLoop();
  void DispatchLoop();
  void ServeConnection(uint64_t id, int fd);

  /// Joins connection threads that have already exited and handed their
  /// handles to finished_threads_. Called from the accept loop (so churn is
  /// reaped while the server runs) and from Stop().
  void ReapFinishedConnections();

  /// Admission control: enqueues under the queue bound, or returns
  /// kOverloaded. On success the returned future yields the query result.
  /// Folds over-bound tenants into kOverflowTenant (rewriting
  /// request.tenant so accounting and the cache partition agree) and runs
  /// the tenant's first-admission ConfigureCachePartition outside
  /// queue_mu_.
  Status Admit(QueryRequest request,
               std::future<Result<DiscoveryResult>>* future,
               QueryTrace* trace, uint32_t root_span);

  /// Steering (options_.steering == kAuto): picks spec->intra_query_threads
  /// from the queue depth its dispatcher observed at dequeue, the live
  /// served p99, and the session's PL-traffic estimate; tallies the
  /// decision. Never changes results — only how fast they are computed.
  void SteerSpec(QuerySpec* spec, size_t queue_depth, uint64_t p99_us,
                 uint32_t dispatch_span);

  void HandleQuery(int fd, std::string_view body, double read_seconds);
  void HandleStats(int fd);
  void HandleMetrics(int fd);

  /// End of a traced request: bumps the slow counter and writes the span
  /// tree as one JSONL line when the root span's wall time exceeds
  /// slow_query_threshold.
  void MaybeLogSlowQuery(const QueryTrace& trace, uint32_t root_span,
                         const std::string& tenant, const Status& status);

  Session* const session_;
  const ServerOptions options_;
  const ServerTestHooks test_hooks_;
  const size_t dispatchers_;

  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: wakes the accept poll on Stop

  std::thread accept_thread_;
  std::vector<std::thread> dispatch_threads_;

  // Connection registry. Each live connection owns one record; on exit the
  // connection thread closes its fd, moves its thread handle to
  // finished_threads_ (joined by the accept loop or Stop), erases its
  // record and decrements active_connections_ in one critical section, and
  // signals connections_cv_ so Stop() can wait for empty.
  struct Connection {
    int fd = -1;
    std::thread thread;
  };
  mutable std::mutex connections_mu_;
  std::condition_variable connections_cv_;
  std::map<uint64_t, Connection> connections_;
  std::vector<std::thread> finished_threads_;
  uint64_t next_connection_id_ = 0;
  std::atomic<uint64_t> active_connections_{0};

  // Queue + admission state, shared by every dispatcher (one mutex so
  // shed-vs-admit is linearized with the drain flag).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<PendingQuery>> queue_;
  bool draining_ = false;
  bool started_ = false;
  bool stopped_ = false;

  // Serving metrics (queue_mu_ guards these too; they are touched on the
  // same paths).
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t completed_ = 0;
  double total_query_seconds_ = 0.0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  LatencyHistogram latency_us_;
  std::map<std::string, TenantCounters> tenants_;

  // Steering decision tallies (atomics: bumped by the dispatchers outside
  // queue_mu_, read by stats()).
  std::atomic<uint64_t> steer_serial_{0};
  std::atomic<uint64_t> steer_partial_{0};
  std::atomic<uint64_t> steer_full_{0};

  // Metrics cells (owned by metrics_; registered in the constructor, so
  // hot paths never look anything up). Counters/histogram are bumped at
  // the same points as the queue_mu_-guarded figures above; gauges refresh
  // from stats() at render time.
  MetricsRegistry metrics_;
  Counter* m_queries_total_ = nullptr;
  Counter* m_shed_total_ = nullptr;
  Counter* m_completed_total_ = nullptr;
  Counter* m_slow_total_ = nullptr;
  Counter* m_requests_query_ = nullptr;
  Counter* m_requests_stats_ = nullptr;
  Counter* m_requests_ping_ = nullptr;
  Counter* m_requests_metrics_ = nullptr;
  Counter* m_steer_serial_ = nullptr;
  Counter* m_steer_partial_ = nullptr;
  Counter* m_steer_full_ = nullptr;
  Gauge* m_queue_depth_ = nullptr;
  Gauge* m_queue_capacity_ = nullptr;
  Gauge* m_dispatchers_ = nullptr;
  Gauge* m_connections_ = nullptr;
  Gauge* m_draining_ = nullptr;
  // Monotone session-side counts (cache hit/miss traffic, corpus
  // evictions) are *counters* on the exposition page — rate() must work —
  // but their source of truth lives in the session, so RenderMetricsText
  // advances each cell by the delta since the last render (serialized by
  // render_mu_).
  Counter* m_cache_hits_ = nullptr;
  Counter* m_cache_misses_ = nullptr;
  Counter* m_corpus_evictions_ = nullptr;
  Gauge* m_corpus_resident_bytes_ = nullptr;
  Gauge* m_corpus_budget_bytes_ = nullptr;
  Gauge* m_tables_resident_ = nullptr;
  Histogram* m_latency_seconds_ = nullptr;
  std::mutex render_mu_;

  // Slow-query log sink (append; stderr when no path is configured).
  std::mutex slow_log_mu_;
  std::ofstream slow_log_file_;
};

}  // namespace mate

#endif  // MATE_SERVER_SERVER_H_
