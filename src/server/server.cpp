#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace mate {

namespace {

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

MateServer::MateServer(Session* session, ServerOptions options,
                       ServerTestHooks test_hooks)
    : session_(session),
      options_(std::move(options)),
      test_hooks_(std::move(test_hooks)) {
  m_queries_total_ = metrics_.RegisterCounter(
      "mate_queries_total", "QUERY requests admitted by the server");
  m_shed_total_ = metrics_.RegisterCounter(
      "mate_queries_shed_total", "QUERY requests refused with kOverloaded");
  m_completed_total_ = metrics_.RegisterCounter(
      "mate_queries_completed_total",
      "Queries the dispatcher executed to completion");
  m_slow_total_ = metrics_.RegisterCounter(
      "mate_slow_queries_total",
      "Queries slower end-to-end than slow_query_threshold");
  m_requests_query_ = metrics_.RegisterCounter(
      "mate_requests_total", "Request frames decoded, by verb",
      {{"verb", "query"}});
  m_requests_stats_ = metrics_.RegisterCounter(
      "mate_requests_total", "Request frames decoded, by verb",
      {{"verb", "stats"}});
  m_requests_ping_ = metrics_.RegisterCounter(
      "mate_requests_total", "Request frames decoded, by verb",
      {{"verb", "ping"}});
  m_requests_metrics_ = metrics_.RegisterCounter(
      "mate_requests_total", "Request frames decoded, by verb",
      {{"verb", "metrics"}});
  m_steer_serial_ = metrics_.RegisterCounter(
      "mate_steering_decisions_total",
      "Dequeue-time fan-out decisions, by mode", {{"mode", "serial"}});
  m_steer_partial_ = metrics_.RegisterCounter(
      "mate_steering_decisions_total",
      "Dequeue-time fan-out decisions, by mode", {{"mode", "partial"}});
  m_steer_full_ = metrics_.RegisterCounter(
      "mate_steering_decisions_total",
      "Dequeue-time fan-out decisions, by mode", {{"mode", "full"}});
  m_queue_depth_ = metrics_.RegisterGauge(
      "mate_queue_depth", "Pending entries in the admission queue");
  m_queue_capacity_ = metrics_.RegisterGauge(
      "mate_queue_capacity", "Admission queue bound (max_queue_depth)");
  m_connections_ = metrics_.RegisterGauge("mate_connections_active",
                                          "Live client connections");
  m_draining_ = metrics_.RegisterGauge(
      "mate_draining", "1 while Stop() drains admitted queries");
  // Monotone counts exposed as counters (rate() works); their source of
  // truth is the session, so RenderMetricsText advances them by delta.
  m_cache_hits_ = metrics_.RegisterCounter(
      "mate_result_cache_hits", "Result-cache hits across all partitions");
  m_cache_misses_ = metrics_.RegisterCounter(
      "mate_result_cache_misses",
      "Result-cache misses across all partitions");
  m_corpus_evictions_ = metrics_.RegisterCounter(
      "mate_corpus_evictions", "Tables evicted by the residency budget");
  m_corpus_resident_bytes_ = metrics_.RegisterGauge(
      "mate_corpus_resident_bytes", "Corpus extent bytes resident");
  m_corpus_budget_bytes_ = metrics_.RegisterGauge(
      "mate_corpus_budget_bytes",
      "Corpus residency budget (0 = unlimited)");
  m_tables_resident_ = metrics_.RegisterGauge(
      "mate_tables_resident", "Tables partially or fully resident");
  m_latency_seconds_ = metrics_.RegisterHistogram(
      "mate_query_latency_seconds",
      "Served query latency (admission to completion)", 1e-6);
  m_queue_capacity_->Set(
      static_cast<int64_t>(options_.max_queue_depth));
}

MateServer::~MateServer() { Stop(); }

Status MateServer::Start() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (started_) return Status::InvalidArgument("server already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(listen_fd_);
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Status::IOError("bind(" + options_.host + ":" +
                               std::to_string(options_.port) +
                               ") failed: " + std::strerror(errno));
    CloseFd(listen_fd_);
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status s = Status::IOError("listen() failed: " +
                               std::string(std::strerror(errno)));
    CloseFd(listen_fd_);
    return s;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_.store(ntohs(bound.sin_port));

  if (::pipe(wake_pipe_) < 0) {
    Status s = Status::IOError("pipe() failed: " +
                               std::string(std::strerror(errno)));
    CloseFd(listen_fd_);
    return s;
  }

  if (options_.slow_query_threshold.count() > 0 &&
      !options_.slow_query_log_path.empty()) {
    slow_log_file_.open(options_.slow_query_log_path,
                        std::ios::out | std::ios::app);
    if (!slow_log_file_.is_open()) {
      CloseFd(listen_fd_);
      CloseFd(wake_pipe_[0]);
      CloseFd(wake_pipe_[1]);
      return Status::IOError("cannot open slow-query log " +
                             options_.slow_query_log_path);
    }
  }

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  return Status::OK();
}

void MateServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    draining_ = true;
  }
  queue_cv_.notify_all();
  // Wake the accept poll so the listener closes and no new connections
  // arrive during the drain.
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // In-flight queries (already admitted) finish: the dispatcher drains the
  // queue and exits. Connections parked on futures get their responses.
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  // Unblock connection readers parked in ReadFrame. Read-side only at
  // first: write sides stay open so responses to just-drained queries
  // still reach their clients.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& [id, conn] : connections_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
    }
  }
  // Every connection thread observes the error, deregisters itself (closing
  // its fd), and hands its handle to finished_threads_; wait for the
  // registry to empty, then join the handles. A thread blocked in
  // WriteFrame on a full send buffer (its peer stopped reading) is NOT
  // woken by the read-side shutdown — after a grace period, escalate those
  // stragglers to SHUT_RDWR, which fails the blocked send with EPIPE, so
  // this join cannot hang forever on a stalled client.
  {
    std::unique_lock<std::mutex> lock(connections_mu_);
    if (!connections_cv_.wait_for(lock, options_.drain_write_grace,
                                  [this] { return connections_.empty(); })) {
      for (auto& [id, conn] : connections_) {
        if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
      }
      connections_cv_.wait(lock, [this] { return connections_.empty(); });
    }
  }
  ReapFinishedConnections();
  CloseFd(wake_pipe_[0]);
  CloseFd(wake_pipe_[1]);
}

void MateServer::ReapFinishedConnections() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    done.swap(finished_threads_);
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

void MateServer::AcceptLoop() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // Stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    // Join threads of connections that exited since the last accept, so a
    // long-lived server under connection churn does not accumulate dead
    // thread handles.
    ReapFinishedConnections();
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      if (connections_.size() >= options_.max_connections) {
        shed = true;
      } else {
        const uint64_t id = next_connection_id_++;
        Connection& conn = connections_[id];
        conn.fd = client;
        active_connections_.fetch_add(1);
        conn.thread =
            std::thread([this, id, client] { ServeConnection(id, client); });
      }
    }
    if (shed) {
      std::string response;
      EncodeErrorResponse(
          Status::Overloaded("connection limit (" +
                             std::to_string(options_.max_connections) +
                             ") reached"),
          &response);
      (void)WriteFrame(client, response);
      ::close(client);
    }
  }
  CloseFd(listen_fd_);
}

void MateServer::ServeConnection(uint64_t id, int fd) {
  std::string payload;
  while (true) {
    double read_seconds = 0.0;
    Status s = ReadFrame(fd, &payload, kMaxFrameBytes, &read_seconds);
    if (s.IsNotFound()) break;  // clean EOF between frames
    if (s.IsInvalidArgument()) {
      // Oversized declared length: answer once, then close — the stream
      // position can no longer be trusted.
      std::string response;
      EncodeErrorResponse(s, &response);
      (void)WriteFrame(fd, response);
      break;
    }
    if (!s.ok()) break;  // truncated frame or socket error

    ServerVerb verb;
    std::string_view body;
    s = DecodeRequestVerb(payload, &verb, &body);
    if (!s.ok()) {
      // Frame boundaries are intact; report the typed error and keep the
      // connection.
      std::string response;
      EncodeErrorResponse(s, &response);
      if (!WriteFrame(fd, response).ok()) break;
      continue;
    }
    switch (verb) {
      case ServerVerb::kQuery:
        m_requests_query_->Increment();
        HandleQuery(fd, body, read_seconds);
        break;
      case ServerVerb::kStats:
        m_requests_stats_->Increment();
        HandleStats(fd);
        break;
      case ServerVerb::kPing: {
        m_requests_ping_->Increment();
        std::string response;
        EncodePingResponse(&response);
        (void)WriteFrame(fd, response);
        break;
      }
      case ServerVerb::kMetrics:
        // Inline on the connection thread, like STATS: scrapes must keep
        // answering while the admission queue is saturated.
        m_requests_metrics_->Increment();
        HandleMetrics(fd);
        break;
    }
  }
  // A response-write failure surfaces as a read failure on the next
  // ReadFrame, so every exit funnels through here. Deregister: close the
  // fd, hand the thread handle to the reaper, erase the record, and wake
  // Stop() in case it is waiting for the registry to drain. Moving the
  // handle of the running thread is fine — only join from another thread
  // touches the underlying thread of execution.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    auto it = connections_.find(id);
    if (it != connections_.end()) {
      CloseFd(it->second.fd);
      finished_threads_.push_back(std::move(it->second.thread));
      connections_.erase(it);
    }
    active_connections_.fetch_sub(1);
  }
  connections_cv_.notify_all();
}

void MateServer::HandleQuery(int fd, std::string_view body,
                             double read_seconds) {
  // Per-request tracing is armed by the slow-query threshold: every query
  // records its server-side phases, and only the ones that end up slow pay
  // for serialization. Threshold 0 = the null-sink path.
  std::unique_ptr<QueryTrace> trace;
  uint32_t root = QueryTrace::kNoParent;
  if (options_.slow_query_threshold.count() > 0) {
    // The frame's transfer finished just before this trace exists, so the
    // epoch is rewound by its duration: read_frame occupies [0, read_us),
    // the root "request" span starts at 0 and covers it, and the decode
    // span (beginning "now" = read_us) does not overlap its sibling —
    // span-containment self-time accounting stays sound, and the root's
    // wall time includes what the client spent sending the frame.
    const uint64_t read_us = static_cast<uint64_t>(read_seconds * 1e6);
    trace = std::make_unique<QueryTrace>("request", read_us);
    root = trace->BeginSpanAt("request", QueryTrace::kNoParent, 0);
    trace->AddCompleteSpan("read_frame", root, 0, read_us);
  }
  std::string response;
  QueryRequest request;
  Status s;
  {
    ScopedSpan decode_span(trace.get(), "decode", root);
    s = DecodeQueryRequest(body, &request);
  }
  if (!s.ok()) {
    EncodeErrorResponse(s, &response);
    {
      ScopedSpan write_span(trace.get(), "write_frame", root);
      (void)WriteFrame(fd, response);
    }
    if (trace != nullptr) {
      trace->EndSpan(root);
      MaybeLogSlowQuery(*trace, root, request.tenant, s);
    }
    return;
  }
  const std::string tenant = request.tenant;
  std::future<Result<DiscoveryResult>> future;
  s = Admit(std::move(request), &future, trace.get(), root);
  if (!s.ok()) {
    // Shed (queue full / draining). The overload tail matters most in the
    // slow-query log, so this path ends the trace like a served request.
    EncodeErrorResponse(s, &response);
    {
      ScopedSpan write_span(trace.get(), "write_frame", root);
      (void)WriteFrame(fd, response);
    }
    if (trace != nullptr) {
      trace->EndSpan(root);
      MaybeLogSlowQuery(*trace, root, tenant, s);
    }
    return;
  }
  Result<DiscoveryResult> result = future.get();
  if (!result.ok()) {
    EncodeErrorResponse(result.status(), &response);
  } else {
    EncodeQueryResponse(session_->corpus(), result.value(), &response);
  }
  {
    ScopedSpan write_span(trace.get(), "write_frame", root);
    (void)WriteFrame(fd, response);
  }
  if (trace != nullptr) {
    trace->EndSpan(root);
    MaybeLogSlowQuery(*trace, root, tenant, result.status());
  }
}

void MateServer::HandleStats(int fd) {
  std::string response;
  EncodeStatsResponse(stats(), &response);
  (void)WriteFrame(fd, response);
}

void MateServer::HandleMetrics(int fd) {
  std::string response;
  EncodeMetricsResponse(RenderMetricsText(), &response);
  (void)WriteFrame(fd, response);
}

namespace {

// Advances a counter cell to a monotone total maintained elsewhere (the
// session). Caller serializes concurrent advances (render_mu_).
void AdvanceCounterTo(Counter* counter, uint64_t total) {
  const uint64_t current = counter->Value();
  if (total > current) counter->Increment(total - current);
}

}  // namespace

std::string MateServer::RenderMetricsText() {
  // Server-side counters are maintained at their event sites; gauges are
  // levels and refresh here from the same snapshot STATS serves. Cache and
  // eviction traffic is monotone but owned by the session, so those
  // counter cells advance by delta — under render_mu_, so concurrent
  // scrapes cannot double-apply a delta.
  const ServerStatsSnapshot snapshot = stats();
  std::lock_guard<std::mutex> lock(render_mu_);
  m_queue_depth_->Set(static_cast<int64_t>(snapshot.queue_depth));
  m_connections_->Set(static_cast<int64_t>(snapshot.active_connections));
  m_draining_->Set(snapshot.draining ? 1 : 0);
  AdvanceCounterTo(m_cache_hits_, snapshot.cache_hits);
  AdvanceCounterTo(m_cache_misses_, snapshot.cache_misses);
  AdvanceCounterTo(m_corpus_evictions_, snapshot.corpus_evictions);
  m_corpus_resident_bytes_->Set(
      static_cast<int64_t>(snapshot.corpus_resident_bytes));
  m_corpus_budget_bytes_->Set(
      static_cast<int64_t>(snapshot.corpus_budget_bytes));
  m_tables_resident_->Set(static_cast<int64_t>(snapshot.tables_resident));
  return metrics_.RenderPrometheusText();
}

void MateServer::MaybeLogSlowQuery(const QueryTrace& trace,
                                   uint32_t root_span,
                                   const std::string& tenant,
                                   const Status& status) {
  const std::vector<TraceSpan> spans = trace.Spans();
  if (root_span >= spans.size()) return;
  const uint64_t wall_us = spans[root_span].duration_us;
  const uint64_t threshold_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          options_.slow_query_threshold)
          .count());
  if (wall_us <= threshold_us) return;
  m_slow_total_->Increment();
  std::string extra = "\"tenant\":\"" + JsonEscape(tenant) +
                      "\",\"status\":\"" +
                      JsonEscape(status.ok() ? "ok" : status.message()) +
                      "\",\"wall_us\":" + std::to_string(wall_us) + ",";
  const std::string line = trace.ToJsonLine(extra);
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  if (slow_log_file_.is_open()) {
    slow_log_file_ << line << "\n";
    slow_log_file_.flush();
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

Status MateServer::Admit(QueryRequest request,
                         std::future<Result<DiscoveryResult>>* future,
                         QueryTrace* trace, uint32_t root_span) {
  TenantCounters* tenant = nullptr;
  // The loop runs at most twice: once to claim a tenant's first-admission
  // partition configuration (performed between iterations, outside
  // queue_mu_ — a slow ResultCache resize must not stall every concurrent
  // admit/shed/stats behind the queue lock), then again to re-run the
  // admission checks atomically with the enqueue.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (tenant == nullptr) {
        // Tenant resolution under the cardinality bound: a name without a
        // dedicated row folds into the shared overflow row once adding one
        // would exceed max_tenants. request.tenant is rewritten so the
        // cache partition, counters, and metric series all agree.
        auto it = tenants_.find(request.tenant);
        if (it == tenants_.end() &&
            tenants_.size() + 1 >= std::max<size_t>(options_.max_tenants, 1)) {
          request.tenant = kOverflowTenant;
          it = tenants_.find(request.tenant);
        }
        if (it == tenants_.end()) {
          it = tenants_.try_emplace(request.tenant).first;
        }
        tenant = &it->second;
        ++tenant->requests;
        if (tenant->requests_metric == nullptr) {
          // First contact: mint the tenant's labeled counter series (now
          // bounded by max_tenants). Lock order here is queue_mu_ ->
          // registry mutex; the registry never calls back out, so this
          // nesting cannot invert.
          tenant->requests_metric = metrics_.RegisterCounter(
              "mate_tenant_requests_total", "QUERY frames received, by tenant.",
              {{"tenant", request.tenant}});
        }
        tenant->requests_metric->Increment();
      }
      if (draining_) {
        ++shed_;
        ++tenant->shed;
        m_shed_total_->Increment();
        return Status::Overloaded("server is draining");
      }
      if (queue_.size() >= options_.max_queue_depth) {
        ++shed_;
        ++tenant->shed;
        m_shed_total_->Increment();
        return Status::Overloaded(
            "admission queue full (" +
            std::to_string(options_.max_queue_depth) + " pending)");
      }
      if (options_.tenant_cache_bytes > 0 && !tenant->partition_configured) {
        // Claim the one-time configuration now, under the lock (exactly
        // once per tenant row, however many first admissions race), but
        // perform it outside: control falls past this scope to the
        // configure step below, then loops.
        tenant->partition_configured = true;
      } else {
        ++admitted_;
        m_queries_total_->Increment();
        ++tenant->admitted;
        auto pending = std::make_unique<PendingQuery>();
        pending->request = std::move(request);
        pending->enqueue_time = std::chrono::steady_clock::now();
        if (trace != nullptr) {
          pending->trace = trace;
          pending->root_span = root_span;
          pending->queue_wait_span = trace->BeginSpan("queue_wait", root_span);
        }
        *future = pending->promise.get_future();
        queue_.push_back(std::move(pending));
        m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
        break;
      }
    }
    // First would-be-admitted query of this tenant: budget its cache
    // partition before this query can be enqueued (so nothing of *this*
    // query lands in an unbudgeted partition; a same-tenant racer admitted
    // in the window lands before the resize, which then evicts down —
    // transient, and far cheaper than serializing every admit behind the
    // configure). ResultCache is internally synchronized.
    if (test_hooks_.before_configure_partition) {
      test_hooks_.before_configure_partition();
    }
    session_->ConfigureCachePartition(request.tenant,
                                      options_.tenant_cache_bytes);
    partition_configures_.fetch_add(1);
  }
  queue_cv_.notify_one();
  return Status::OK();
}

void MateServer::SteerSpec(QuerySpec* spec, size_t queue_depth,
                           uint64_t p99_us, uint32_t dispatch_span) {
  const Result<uint64_t> estimate = session_->EstimatePlItems(*spec);
  if (!estimate.ok()) {
    // A spec Discover will reject anyway; leave the knobs alone so the
    // error surfaces unchanged, and count no decision.
    return;
  }
  const uint64_t target_p99_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          options_.target_p99)
          .count());
  const bool big = estimate.value() >= options_.steering_min_items;
  const bool over_slo = target_p99_us > 0 && p99_us > target_p99_us;
  const bool queue_deep = queue_depth * 2 >= options_.max_queue_depth;
  const char* mode = nullptr;
  if (!big || over_slo || queue_deep) {
    // Small queries gain nothing from fan-out; big ones degrade to serial
    // while the server is in the red — a giant query must not grab the
    // whole pool while the queue backs up or the SLO is already blown.
    spec->intra_query_threads = 1;
    mode = "serial";
    steer_serial_.fetch_add(1, std::memory_order_relaxed);
    m_steer_serial_->Increment();
  } else if (queue_depth > 0) {
    // Pressure building but not critical: half the pool.
    spec->intra_query_threads = std::max(1u, session_->num_threads() / 2);
    mode = "partial";
    steer_partial_.fetch_add(1, std::memory_order_relaxed);
    m_steer_partial_->Increment();
  } else {
    // Idle: the executor's auto mode (full fan-out for big queries).
    spec->intra_query_threads = 0;
    mode = "full";
    steer_full_.fetch_add(1, std::memory_order_relaxed);
    m_steer_full_->Increment();
  }
  if (spec->trace != nullptr) {
    spec->trace->AddCompleteSpan(
        "steer", dispatch_span, spec->trace->NowUs(), 0, 0,
        "\"mode\":\"" + std::string(mode) +
            "\",\"estimate\":" + std::to_string(estimate.value()) +
            ",\"queue_depth\":" + std::to_string(queue_depth) +
            ",\"p99_us\":" + std::to_string(p99_us));
  }
}

void MateServer::DispatchLoop() {
  while (true) {
    std::unique_ptr<PendingQuery> pending;
    size_t queue_depth = 0;
    uint64_t p99_us = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (draining_) return;
        continue;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      // Steering inputs, captured atomically with the dequeue: the backlog
      // left behind this query and the live served p99.
      queue_depth = queue_.size();
      if (options_.steering == SteeringMode::kAuto) {
        p99_us = latency_us_.Percentile(0.99);
      }
    }
    if (test_hooks_.before_dispatch) test_hooks_.before_dispatch();
    uint32_t dispatch_span = QueryTrace::kNoParent;
    if (pending->trace != nullptr) {
      pending->trace->EndSpan(pending->queue_wait_span);
      dispatch_span =
          pending->trace->BeginSpan("dispatch", pending->root_span);
      // Discover roots its own span tree under whatever attach_parent says;
      // point it at the dispatch span so the query pipeline's phases nest
      // inside this request.
      pending->trace->SetAttachParent(dispatch_span);
    }
    QuerySpec spec = SpecFromRequest(pending->request);
    spec.trace = pending->trace;
    if (options_.steering == SteeringMode::kAuto) {
      SteerSpec(&spec, queue_depth, p99_us, dispatch_span);
    }
    Result<DiscoveryResult> result = session_->Discover(spec);
    if (pending->trace != nullptr) {
      pending->trace->EndSpan(dispatch_span);
    }
    const auto now = std::chrono::steady_clock::now();
    const uint64_t waited_us =
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::microseconds>(
                                  now - pending->enqueue_time)
                                  .count());
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      ++completed_;
      latency_us_.Record(waited_us);
      if (result.ok()) {
        total_query_seconds_ += result.value().stats.runtime_seconds;
      }
    }
    m_completed_total_->Increment();
    m_latency_seconds_->Record(waited_us);
    pending->promise.set_value(std::move(result));
  }
}

size_t MateServer::registered_connections_for_test() const {
  std::lock_guard<std::mutex> lock(connections_mu_);
  return connections_.size();
}

ServerStatsSnapshot MateServer::stats() const {
  ServerStatsSnapshot snapshot;
  std::vector<std::string> tenant_names;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    snapshot.queue_depth = queue_.size();
    snapshot.queue_capacity = options_.max_queue_depth;
    snapshot.admitted = admitted_;
    snapshot.shed = shed_;
    snapshot.completed = completed_;
    snapshot.draining = draining_;
    snapshot.total_query_seconds = total_query_seconds_;
    snapshot.latency_count = latency_us_.count();
    snapshot.latency_p50_us = latency_us_.Percentile(0.50);
    snapshot.latency_p90_us = latency_us_.Percentile(0.90);
    snapshot.latency_p99_us = latency_us_.Percentile(0.99);
    snapshot.latency_p999_us = latency_us_.Percentile(0.999);
    snapshot.latency_max_us = latency_us_.max();
    for (const auto& [name, counters] : tenants_) {
      TenantStats t;
      t.tenant = name;
      t.requests = counters.requests;
      t.admitted = counters.admitted;
      t.shed = counters.shed;
      snapshot.tenants.push_back(std::move(t));
      tenant_names.push_back(name);
    }
  }
  snapshot.active_connections = active_connections_.load();
  snapshot.steering_serial = steer_serial_.load();
  snapshot.steering_partial = steer_partial_.load();
  snapshot.steering_full = steer_full_.load();

  const ResultCacheStats cache = session_->cache_stats();
  snapshot.cache_hits = cache.hits;
  snapshot.cache_misses = cache.misses;

  const ResidencyStats residency = session_->corpus_residency();
  snapshot.corpus_resident_bytes = residency.resident_bytes;
  snapshot.corpus_peak_resident_bytes = residency.peak_resident_bytes;
  snapshot.corpus_budget_bytes = residency.budget_bytes;
  snapshot.corpus_evictions = residency.evictions;
  snapshot.tables_resident = residency.tables_resident;
  snapshot.num_tables = session_->corpus().NumTables();

  // Per-tenant cache rows come from the session's partition stats (the
  // cache is internally synchronized; reading it outside queue_mu_ avoids
  // a lock-order edge with the dispatcher).
  for (size_t i = 0; i < tenant_names.size(); ++i) {
    const ResultCacheStats partition =
        session_->cache_partition_stats(tenant_names[i]);
    TenantStats& t = snapshot.tenants[i];
    t.cache_hits = partition.hits;
    t.cache_misses = partition.misses;
    t.cache_entries = partition.entries;
    t.cache_bytes = partition.bytes;
    t.cache_capacity_bytes = partition.capacity_bytes;
  }
  return snapshot;
}

}  // namespace mate
