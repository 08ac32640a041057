// QueryTrace — a per-query span recorder for phase-level attribution of
// where a Discover call spent its time.
//
// A trace is a flat vector of spans, each carrying a steady-clock start
// offset and duration (microseconds since the trace's epoch), an explicit
// parent id (so the tree survives crossing thread-pool boundaries — no
// thread-local ambient context), and a display track `tid` (shard spans
// render on their own tracks in chrome://tracing). Spans are appended
// under one mutex: tracing is opt-in, and a query records tens to a few
// hundred spans, so contention is irrelevant — what matters is the OFF
// path, which is a single null-pointer check with no allocation
// (tests/obs_test.cpp pins this with an operator-new counter).
//
// Wiring pattern. The pipeline passes a nullable `QueryTrace*` down
// (QuerySpec::trace -> ExecutorOptions::trace); every instrumentation site
// is a ScopedSpan, which is a complete no-op on a null trace. Layers that
// cannot see each other's span ids join through the *attach parent*: the
// server opens its "dispatch" span, calls SetAttachParent(id), and
// Session::Discover roots its "discover" span there — so a server-side
// request trace and the query's pipeline spans form one tree.
//
// Exports: Chrome trace-event JSON (complete "X" events; load in
// chrome://tracing or Perfetto) and a one-line JSON object for the
// server's slow-query log.

#ifndef MATE_OBS_TRACE_H_
#define MATE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mate {

struct TraceSpan {
  uint32_t id = 0;
  /// QueryTrace::kNoParent for roots.
  uint32_t parent = 0;
  std::string name;
  /// Microseconds since the trace epoch.
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  /// Display track: 0 = the query's main line, shard spans use shard + 1.
  uint64_t tid = 0;
  /// Optional pre-rendered JSON object body (`"k":1,"s":"v"` — no braces).
  std::string args_json;
};

class QueryTrace {
 public:
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;

  /// `epoch_rewind_us` back-dates the trace epoch: work that finished just
  /// before the trace existed (the server's frame read) can then be
  /// recorded at [0, rewind) without overlapping spans that begin "now"
  /// (= rewind), keeping SelfTimesUs's containment accounting sound.
  explicit QueryTrace(std::string_view name = "query",
                      uint64_t epoch_rewind_us = 0);

  /// Process-unique id (monotonic; stamped into exports).
  uint64_t trace_id() const { return trace_id_; }
  const std::string& name() const { return name_; }

  /// Opens a span starting now; close it with EndSpan. Thread-safe.
  uint32_t BeginSpan(std::string_view span_name, uint32_t parent = kNoParent,
                     uint64_t tid = 0);
  /// Opens a span at an explicit epoch offset (pairs with a rewound epoch:
  /// the server's root "request" span starts at 0, before spans recorded
  /// "now"). Close it with EndSpan like any other span.
  uint32_t BeginSpanAt(std::string_view span_name, uint32_t parent,
                       uint64_t start_us, uint64_t tid = 0);
  void EndSpan(uint32_t id);
  void EndSpan(uint32_t id, std::string args_json);

  /// Records an already-measured interval (used where begin/end would
  /// straddle an awkward boundary, e.g. the frame read that precedes the
  /// trace's creation).
  uint32_t AddCompleteSpan(std::string_view span_name, uint32_t parent,
                           uint64_t start_us, uint64_t duration_us,
                           uint64_t tid = 0, std::string args_json = "");

  /// Microseconds since the trace epoch (steady clock).
  uint64_t NowUs() const;

  /// The span id under which the next layer should root its spans; layers
  /// that open a logical child scope set it before calling down.
  void SetAttachParent(uint32_t id) {
    attach_parent_.store(id, std::memory_order_relaxed);
  }
  uint32_t attach_parent() const {
    return attach_parent_.load(std::memory_order_relaxed);
  }

  /// Snapshot of all spans recorded so far (copy; id order = begin order).
  std::vector<TraceSpan> Spans() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]} of "X" complete
  /// events, ts/dur in microseconds.
  std::string ToChromeTraceJson() const;

  /// One JSON object on a single line (the slow-query log format):
  /// {"trace_id":N,"name":"...",<extra_fields>,"spans":[...]}.
  /// `extra_fields` is a pre-rendered fragment like `"tenant":"a",` —
  /// trailing comma included, or empty.
  std::string ToJsonLine(std::string_view extra_fields = "") const;

 private:
  const std::string name_;
  const uint64_t trace_id_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint32_t> attach_parent_{kNoParent};

  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
};

/// RAII span: records nothing when `trace` is null (the off path — one
/// branch, no allocation). End() closes early; the destructor closes
/// otherwise.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(QueryTrace* trace, std::string_view name,
             uint32_t parent = QueryTrace::kNoParent, uint64_t tid = 0)
      : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->BeginSpan(name, parent, tid);
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// `args_json` as in QueryTrace::EndSpan; build it only when tracing,
  /// since the off path must not allocate.
  void End(std::string args_json = std::string()) {
    if (trace_ != nullptr) {
      trace_->EndSpan(id_, std::move(args_json));
      trace_ = nullptr;
    }
  }
  /// kNoParent when tracing is off, so children chain harmlessly.
  uint32_t id() const { return id_; }

 private:
  QueryTrace* trace_ = nullptr;
  uint32_t id_ = QueryTrace::kNoParent;
};

/// Self time per span (duration minus the durations of direct children),
/// index-aligned with `spans`. A child longer than its parent (clock skew
/// across threads) clamps at zero.
std::vector<uint64_t> SelfTimesUs(const std::vector<TraceSpan>& spans);

/// Escapes a string for embedding inside a JSON string literal.
std::string JsonEscape(std::string_view s);

}  // namespace mate

#endif  // MATE_OBS_TRACE_H_
