// Observability layer: MetricsRegistry exactness under concurrency,
// Prometheus exposition (golden page, label escaping, histogram buckets),
// QueryTrace span recording (nesting, self times, exports), the
// allocation-free trace-off path, and end-to-end phase coverage of a
// traced Session::Discover.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery_engine.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math_util.h"

// ---- allocation counter ------------------------------------------------
// This test binary's global new counts allocations so the trace-off path
// can be pinned as allocation-free. Only the delta matters; the counter
// itself must not allocate.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// The nothrow variant must route through the same allocator as the
// throwing one: libstdc++'s temporary buffers allocate nothrow but free
// through plain operator delete, and ASan flags the pairing otherwise.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mate {
namespace {

// ---- MetricsRegistry ---------------------------------------------------

TEST(MetricsRegistryTest, CounterTotalsAreExactUnderConcurrency) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("test_total", "help");
  ASSERT_NE(counter, nullptr);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(MetricsRegistryTest, HistogramLosesNoSamplesUnderConcurrency) {
  MetricsRegistry registry;
  Histogram* hist =
      registry.RegisterHistogram("test_latency_us", "help", 1e-6);
  ASSERT_NE(hist, nullptr);
  constexpr int kThreads = 6;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist->Record(i % 1000 + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist->Snapshot().count(), kThreads * kPerThread);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentPerNameAndLabels) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("m_total", "events");
  Counter* b = registry.RegisterCounter("m_total", "events");
  EXPECT_EQ(a, b) << "same (name, labels) must return the same cell";
  Counter* labeled = registry.RegisterCounter("m_total", "events",
                                              {{"tenant", "x"}});
  EXPECT_NE(a, labeled) << "distinct labels are distinct series";
  EXPECT_EQ(labeled,
            registry.RegisterCounter("m_total", "events", {{"tenant", "x"}}));
  a->Increment(3);
  b->Increment(2);
  EXPECT_EQ(a->Value(), 5u);
}

TEST(MetricsRegistryTest, TypeMismatchOnSameNameReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.RegisterCounter("m_total", "events"), nullptr);
  EXPECT_EQ(registry.RegisterGauge("m_total", "events"), nullptr);
  EXPECT_EQ(registry.RegisterHistogram("m_total", "events"), nullptr);
  ASSERT_NE(registry.RegisterGauge("m_depth", "depth"), nullptr);
  EXPECT_EQ(registry.RegisterCounter("m_depth", "depth"), nullptr);
}

TEST(MetricsRegistryTest, EscapeLabelValueHandlesSpecials) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(MetricsRegistryTest, PrometheusExpositionGoldenPage) {
  MetricsRegistry registry;
  Gauge* depth = registry.RegisterGauge("test_depth", "Depth.");
  Counter* events = registry.RegisterCounter("test_events_total",
                                             "Events seen.");
  Counter* labeled = registry.RegisterCounter(
      "test_labeled_total", "Labeled events.",
      {{"tenant", "a\"b\\c"}, {"zone", "x\ny"}});
  Histogram* latency = registry.RegisterHistogram(
      "test_latency_seconds", "Latency.", 1e-6, {1000, 1000000});
  ASSERT_NE(depth, nullptr);
  ASSERT_NE(events, nullptr);
  ASSERT_NE(labeled, nullptr);
  ASSERT_NE(latency, nullptr);
  depth->Set(7);
  events->Increment(3);
  labeled->Increment();
  latency->Record(500);      // -> <= 0.001s bucket
  latency->Record(2000000);  // -> only +Inf

  // Families in name order, series in registration order, label values
  // escaped, le bounds scaled into seconds.
  const std::string expected = R"(# HELP test_depth Depth.
# TYPE test_depth gauge
test_depth 7
# HELP test_events_total Events seen.
# TYPE test_events_total counter
test_events_total 3
# HELP test_labeled_total Labeled events.
# TYPE test_labeled_total counter
test_labeled_total{tenant="a\"b\\c",zone="x\ny"} 1
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.001"} 1
test_latency_seconds_bucket{le="1"} 1
test_latency_seconds_bucket{le="+Inf"} 2
test_latency_seconds_sum 2.0005
test_latency_seconds_count 2
)";
  EXPECT_EQ(registry.RenderPrometheusText(), expected);
}

// ---- QueryTrace --------------------------------------------------------

TEST(QueryTraceTest, SpansNestAndKeepBeginOrder) {
  QueryTrace trace("t");
  const uint32_t root = trace.BeginSpan("root");
  const uint32_t child = trace.BeginSpan("child", root);
  trace.EndSpan(child);
  trace.EndSpan(root);
  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, QueryTrace::kNoParent);
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  // Child ended before root on the same clock: containment is exact.
  EXPECT_LE(spans[1].start_us + spans[1].duration_us,
            spans[0].start_us + spans[0].duration_us);
}

TEST(QueryTraceTest, SelfTimeSubtractsDirectChildren) {
  QueryTrace trace;
  const uint32_t root = trace.AddCompleteSpan("root", QueryTrace::kNoParent,
                                              0, 100);
  trace.AddCompleteSpan("a", root, 10, 30);
  const uint32_t b = trace.AddCompleteSpan("b", root, 40, 20);
  trace.AddCompleteSpan("b1", b, 45, 50);  // longer than b: b clamps at 0
  const std::vector<uint64_t> self = SelfTimesUs(trace.Spans());
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 50u);  // 100 - 30 - 20; grandchild not subtracted
  EXPECT_EQ(self[1], 30u);
  EXPECT_EQ(self[2], 0u);  // clamped
  EXPECT_EQ(self[3], 50u);
}

TEST(QueryTraceTest, EpochRewindBackdatesSpansForPreTraceWork) {
  // Work that happened before the trace existed (a server reading a request
  // frame) is accounted by rewinding the epoch: a root begun at 0 covers
  // the rewound window, a complete span for the pre-trace work occupies
  // [0, rewind), and a span begun "now" starts at or after the rewind — so
  // the pre-trace span and its live siblings never overlap and SelfTimesUs
  // containment stays sound.
  const uint64_t rewind_us = 50000;
  QueryTrace trace("request", rewind_us);
  const uint32_t root =
      trace.BeginSpanAt("request", QueryTrace::kNoParent, 0);
  trace.AddCompleteSpan("read_frame", root, 0, rewind_us);
  const uint32_t decode = trace.BeginSpan("decode", root);
  trace.EndSpan(decode);
  trace.EndSpan(root);

  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].start_us, 0u);
  // The root's wall clock includes the pre-trace window.
  EXPECT_GE(spans[0].duration_us, rewind_us);
  EXPECT_EQ(spans[1].start_us, 0u);
  EXPECT_EQ(spans[1].duration_us, rewind_us);
  // Begun "now": at or past the rewound window, no sibling overlap.
  EXPECT_GE(spans[2].start_us, rewind_us);

  // Containment arithmetic: the root's self time is its wall minus both
  // direct children, never negative.
  const std::vector<uint64_t> self = SelfTimesUs(spans);
  ASSERT_EQ(self.size(), 3u);
  EXPECT_EQ(self[0],
            spans[0].duration_us - rewind_us - spans[2].duration_us);
}

TEST(QueryTraceTest, TraceOffPathDoesNotAllocate) {
  QueryTrace* off = nullptr;
  bool ids_stayed_null = true;
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span(off, "phase");
    ScopedSpan child(off, "child", span.id());
    child.End();
    ids_stayed_null &= span.id() == QueryTrace::kNoParent;
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "a null trace must cost one branch, not an allocation";
  EXPECT_TRUE(ids_stayed_null);
}

TEST(QueryTraceTest, ChromeTraceJsonCarriesSpans) {
  QueryTrace trace("q");
  const uint32_t root = trace.AddCompleteSpan("discover",
                                              QueryTrace::kNoParent, 0, 90);
  trace.AddCompleteSpan("fetch_shard", root, 5, 40, /*tid=*/2);
  const std::string json = trace.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"discover\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fetch_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

TEST(QueryTraceTest, JsonLineEmbedsExtraFieldsAndEscapes) {
  QueryTrace trace("q");
  trace.AddCompleteSpan("a\"b", QueryTrace::kNoParent, 0, 10);
  const std::string line = trace.ToJsonLine("\"tenant\":\"t\\\"x\",");
  EXPECT_NE(line.find("\"tenant\":\"t\\\"x\""), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(line.find("\"parent\":-1"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one line per record";
}

// ---- end-to-end: a traced Session::Discover ---------------------------

Corpus MakeLake() {
  Corpus corpus;
  Table t1("people_de");
  t1.AddColumn("Vorname");
  t1.AddColumn("Nachname");
  t1.AddColumn("Land");
  (void)t1.AppendRow({"Helmut", "Newton", "Germany"});
  (void)t1.AppendRow({"Muhammad", "Lee", "US"});
  (void)t1.AppendRow({"Ansel", "Adams", "UK"});
  corpus.AddTable(std::move(t1));
  Table t2("partial_match");
  t2.AddColumn("first");
  t2.AddColumn("last");
  (void)t2.AppendRow({"Muhammad", "Lee"});
  (void)t2.AppendRow({"Grace", "Hopper"});
  corpus.AddTable(std::move(t2));
  return corpus;
}

Table MakeQuery() {
  Table query("q");
  query.AddColumn("first");
  query.AddColumn("last");
  (void)query.AppendRow({"Muhammad", "Lee"});
  (void)query.AppendRow({"Helmut", "Newton"});
  return query;
}

TEST(TracedDiscoverTest, SpanTreeCoversEveryPipelinePhase) {
  SessionOptions options;
  options.corpus = MakeLake();
  options.build_index = true;
  options.cache_bytes = 1 << 20;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  const Table query = MakeQuery();
  QueryTrace trace("search");
  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = {0, 1};
  spec.options.k = 5;
  spec.trace = &trace;
  auto result = session->Discover(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->top_k.empty());

  const std::vector<TraceSpan> spans = trace.Spans();
  std::set<std::string> names;
  for (const TraceSpan& span : spans) names.insert(span.name);
  for (const char* phase :
       {"discover", "validate", "readiness_wait", "cache_lookup", "execute",
        "prepare", "fetch", "fetch_shard", "evaluate", "merge", "row_loop",
        "cache_insert"}) {
    EXPECT_TRUE(names.count(phase)) << "missing phase span: " << phase;
  }

  // Structural invariants: every parent id is a valid earlier span, every
  // span nests inside its parent on the shared steady clock, and every
  // span except the root has a parent (one tree, no orphans).
  std::map<uint32_t, const TraceSpan*> by_id;
  for (const TraceSpan& span : spans) by_id[span.id] = &span;
  size_t roots = 0;
  for (const TraceSpan& span : spans) {
    if (span.parent == QueryTrace::kNoParent) {
      ++roots;
      continue;
    }
    ASSERT_TRUE(by_id.count(span.parent)) << span.name;
    const TraceSpan& parent = *by_id[span.parent];
    EXPECT_LT(parent.id, span.id) << "parents begin before children";
    EXPECT_GE(span.start_us, parent.start_us) << span.name;
    EXPECT_LE(span.start_us + span.duration_us,
              parent.start_us + parent.duration_us)
        << span.name << " escapes " << parent.name;
  }
  EXPECT_EQ(roots, 1u) << "a direct Discover call forms one tree";

  // The root's direct children account for (at most) its duration: phases
  // are sequential on the main line.
  const TraceSpan* discover = by_id.begin()->second;
  ASSERT_EQ(discover->name, "discover");
  uint64_t children_us = 0;
  for (const TraceSpan& span : spans) {
    if (span.parent == discover->id) children_us += span.duration_us;
  }
  EXPECT_LE(children_us, discover->duration_us);
}

TEST(TracedDiscoverTest, PrepareSpanNamesTheInitColumn) {
  SessionOptions options;
  options.corpus = MakeLake();
  options.build_index = true;
  options.cache_bytes = 0;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Key position 0 is column 1 ("newton": 1 PL item), position 1 is
  // column 0 ("muhammad" 2 + "helmut" 1).
  Table query("q");
  query.AddColumn("first");
  query.AddColumn("last");
  (void)query.AppendRow({"Muhammad", "Newton"});
  (void)query.AppendRow({"Helmut", "Newton"});
  struct Case {
    InitColumnStrategy strategy;
    std::string args;
    uint64_t pl_items;
  };
  const Case cases[] = {
      {InitColumnStrategy::kBestCase,
       "\"init_pos\":0,\"init_column\":1,\"init_strategy\":\"Best\","
       "\"pl_items\":1",
       1},
      {InitColumnStrategy::kWorstCase,
       "\"init_pos\":1,\"init_column\":0,\"init_strategy\":\"Worst\","
       "\"pl_items\":3",
       3},
  };
  for (const Case& c : cases) {
    QueryTrace trace("search");
    QuerySpec spec;
    spec.table = &query;
    spec.key_columns = {1, 0};
    spec.options.init_strategy = c.strategy;
    spec.trace = &trace;
    auto result = session->Discover(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.pl_items_fetched, c.pl_items);
    size_t prepares = 0;
    for (const TraceSpan& span : trace.Spans()) {
      if (span.name != "prepare") continue;
      ++prepares;
      EXPECT_EQ(span.args_json, c.args);
    }
    EXPECT_EQ(prepares, 1u);
  }
}

TEST(TracedDiscoverTest, CacheHitTraceSkipsExecution) {
  SessionOptions options;
  options.corpus = MakeLake();
  options.build_index = true;
  options.cache_bytes = 1 << 20;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  const Table query = MakeQuery();
  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = {0, 1};
  spec.options.k = 5;
  ASSERT_TRUE(session->Discover(spec).ok());  // warm the cache, untraced

  QueryTrace trace;
  spec.trace = &trace;
  auto result = session->Discover(spec);
  ASSERT_TRUE(result.ok());
  std::set<std::string> names;
  for (const TraceSpan& span : trace.Spans()) names.insert(span.name);
  EXPECT_TRUE(names.count("cache_lookup"));
  EXPECT_FALSE(names.count("execute")) << "a hit must not run the executor";
  EXPECT_FALSE(names.count("cache_insert"));
}

// ---- BatchStats percentiles via LatencyHistogram ----------------------

TEST(BatchStatsTest, HistogramPercentilesTrackSortedReference) {
  // AggregateBatchStats now routes latency percentiles through a
  // LatencyHistogram over integer microseconds; against the sorted-vector
  // reference that allows the histogram's bounded over-report (<= 1/16
  // relative) plus the sub-microsecond truncation.
  std::vector<DiscoveryResult> results(257);
  std::vector<double> sorted;
  uint64_t state = 12345;
  for (DiscoveryResult& r : results) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double seconds = static_cast<double>(state % 2000000) / 1e6;
    r.stats.runtime_seconds = seconds;
    sorted.push_back(static_cast<double>(
                         static_cast<uint64_t>(seconds * 1e6)) /
                     1e6);
  }
  std::sort(sorted.begin(), sorted.end());
  const BatchStats stats = AggregateBatchStats(results, 1.0, 1);
  const struct {
    double p;
    double got;
  } checks[] = {{0.50, stats.latency_p50_s},
                {0.90, stats.latency_p90_s},
                {0.99, stats.latency_p99_s}};
  for (const auto& check : checks) {
    const double reference = PercentileSorted(sorted, check.p);
    EXPECT_GE(check.got, reference - 2e-6) << "p=" << check.p;
    EXPECT_LE(check.got, reference + reference / 16.0 + 2e-6)
        << "p=" << check.p;
  }
  EXPECT_DOUBLE_EQ(stats.latency_max_s, sorted.back());
}

}  // namespace
}  // namespace mate
