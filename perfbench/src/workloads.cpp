#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/session.h"
#include "index/index_io.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/corpus_io.h"
#include "workload/scenarios.h"

namespace perfbench {
namespace {

using mate::DiscoveryResult;
using mate::DiscoveryStats;
using mate::QueryCase;
using mate::Session;
using mate::SessionOptions;

// ---- workload shapes --------------------------------------------------------

constexpr int kTopK = 10;
/// Set-ups per timed run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Length of each pre-generated request stream (wraps if ever exhausted).
constexpr size_t kStreamLength = 100000;
/// Dataset seed of every lake: the lakes are fixed datasets, as the paper's
/// corpora are, and --seed draws the request streams over them.
constexpr uint64_t kLakeSeed = 42;

// nary_join: the key-size lake (12-33 columns), |Q| in {2,3,4}.
constexpr double kNaryScale = 0.5;
constexpr size_t kNaryQueriesPerSet = 40;

// wt_served: the web-table lake, |Q| = 2, 6-500-row queries.
constexpr double kWtScale = 0.5;
constexpr size_t kWtQueriesPerSet = 40;
constexpr size_t kTenants = 3;
/// A tenant repeats one of its last kRepeatWindow distinct requests with
/// this probability; otherwise it sends the next query of its own cycle.
constexpr double kRepeatShare = 0.2;
constexpr size_t kRepeatWindow = 8;
/// Per-tenant result-cache partition: holds the repeat window with room to
/// spare, but far less than a tenant's cycle, so only repeats hit.
constexpr size_t kTenantCacheBytes = 16u << 10;

// od_budget: the open-data lake, OD (100) and OD (1000) queries, |Q| = 2,
// reopened lazily under a budget of a quarter of its cell bytes.
constexpr double kOdScale = 0.05;
constexpr size_t kOdQueriesPerSet = 15;
constexpr uint64_t kOdBudgetDivisor = 4;

// Correctness and per-layer sampling.
constexpr size_t kBruteForceSample = 6;
constexpr size_t kScrSample = 24;
/// Queries at the head of the traced run's untraced pass whose residency
/// counters are reported; the pass always runs at least this many, so the
/// counters repeat exactly for a seed.
constexpr size_t kCounterPrefix = 30;

// End-to-end statistics are medians over up to kMaxWindows equal windows of
// the timed phase, each holding kMinWindowSamples queries or more on
// average, so a window's p90 has ten or more samples beyond it.
constexpr size_t kMaxWindows = 10;
constexpr size_t kMinWindowSamples = 100;

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  std::cout.flush();
  std::_Exit(1);
}

template <typename T>
T ValueOrDie(mate::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

void OkOrDie(const mate::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---- inputs -----------------------------------------------------------------

struct Inputs {
  mate::Workload lake;
  /// Distinct queries of the measured mix.
  std::vector<const QueryCase*> pool;
  /// Key-only projections of `pool` (what a client sends), tenant unset.
  std::vector<mate::QueryRequest> requests;
  /// One request stream per caller: indices into `pool`.
  std::vector<std::vector<uint32_t>> streams;
  uint64_t cell_bytes = 0;
  std::string digest;
};

std::vector<uint32_t> CyclingStream(size_t pool, SplitMix64* rng) {
  std::vector<uint32_t> stream;
  stream.reserve(kStreamLength);
  std::vector<uint32_t> order(pool);
  for (size_t i = 0; i < pool; ++i) order[i] = static_cast<uint32_t>(i);
  while (stream.size() < kStreamLength) {
    rng->Shuffle(&order);
    for (uint32_t q : order) {
      if (stream.size() == kStreamLength) break;
      stream.push_back(q);
    }
  }
  return stream;
}

// A tenant walks its own fixed permutation of the pool (so a query comes
// back only after every other one, long after its cache entry aged out)
// and, with probability kRepeatShare, re-sends one of its last
// kRepeatWindow distinct requests instead.
std::vector<uint32_t> TenantStream(size_t pool, SplitMix64* rng) {
  std::vector<uint32_t> order(pool);
  for (size_t i = 0; i < pool; ++i) order[i] = static_cast<uint32_t>(i);
  rng->Shuffle(&order);
  std::vector<uint32_t> stream;
  std::vector<uint32_t> recent;
  size_t next = 0;
  stream.reserve(kStreamLength);
  while (stream.size() < kStreamLength) {
    if (recent.size() == kRepeatWindow && rng->NextDouble() < kRepeatShare) {
      stream.push_back(recent[rng->Uniform(recent.size())]);
      continue;
    }
    const uint32_t q = order[next];
    next = (next + 1) % order.size();
    stream.push_back(q);
    recent.push_back(q);
    if (recent.size() > kRepeatWindow) recent.erase(recent.begin());
  }
  return stream;
}

Inputs Generate(const RunArgs& args) {
  Inputs in;
  mate::WorkloadConfig config;
  config.seed = kLakeSeed;
  if (args.workload == "nary_join") {
    config.scale = kNaryScale;
    config.queries_per_set = kNaryQueriesPerSet;
    in.lake = mate::MakeKeySizeWorkload(config, {2, 3, 4});
  } else if (args.workload == "wt_served") {
    config.scale = kWtScale;
    config.queries_per_set = kWtQueriesPerSet;
    in.lake = mate::MakeWebTablesWorkload(config);
  } else {
    config.scale = kOdScale;
    config.queries_per_set = kOdQueriesPerSet;
    in.lake = mate::MakeOpenDataWorkload(config);
  }
  for (const auto& [set_name, cases] : in.lake.query_sets) {
    // OD (10000) stays out of the mix: one such query runs for seconds.
    if (set_name == "OD (10000)") continue;
    for (const QueryCase& qc : cases) in.pool.push_back(&qc);
  }
  for (const QueryCase* qc : in.pool) {
    in.requests.push_back(
        mate::MakeQueryRequest(qc->query, qc->key_columns, kTopK, ""));
  }

  SplitMix64 rng(args.seed * 0x9E3779B97F4A7C15ULL ^ 0x7065726662656E63ULL);
  if (args.workload == "wt_served") {
    for (size_t t = 0; t < kTenants; ++t) {
      in.streams.push_back(TenantStream(in.pool.size(), &rng));
    }
  } else {
    in.streams.push_back(CyclingStream(in.pool.size(), &rng));
  }
  in.cell_bytes = LakeCellBytes(in.lake.corpus);

  Digest d;
  DigestCorpus(in.lake.corpus, &d);
  d.U64(in.pool.size());
  for (const QueryCase* qc : in.pool) {
    DigestTable(qc->query, &d);
    d.U64(qc->key_columns.size());
    for (mate::ColumnId c : qc->key_columns) d.U64(c);
  }
  for (const std::vector<uint32_t>& stream : in.streams) {
    for (uint32_t q : stream) d.U64(q);
  }
  in.digest = d.Hex();
  return in;
}

mate::QuerySpec LocalSpec(const QueryCase& qc) {
  mate::QuerySpec spec;
  spec.table = &qc.query;
  spec.key_columns = qc.key_columns;
  spec.options.k = kTopK;
  spec.intra_query_threads = 1;
  return spec;
}

// ---- sessions ---------------------------------------------------------------

/// Options that build a serial index over a copy of the lake (the copy is
/// made here, before any timer starts).
SessionOptions BuildOptions(const mate::Corpus& lake, size_t cache_bytes) {
  SessionOptions options;
  options.corpus = CopyCorpus(lake);
  options.build_index = true;
  options.build_options.num_threads = 1;
  options.num_threads = 1;
  options.cache_bytes = cache_bytes;
  return options;
}

std::unique_ptr<Session> OpenReady(SessionOptions options,
                                   const std::string& what) {
  auto session = std::make_unique<Session>(
      ValueOrDie(Session::Open(std::move(options)), what));
  OkOrDie(session->WaitUntilReady(), what + " (readiness)");
  return session;
}

struct Paths {
  std::string corpus;
  std::string index;
  std::string slow_log;
  std::string chrome_trace;
};

Paths MakePaths(const RunArgs& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Die("cannot create " + args.work_dir + ": " + ec.message());
  const std::string stem = args.work_dir + "/" + args.workload + "-" +
                           std::to_string(::getpid());
  return {stem + ".corpus", stem + ".index", stem + ".slow.jsonl",
          args.work_dir + "/trace-" + args.workload + ".json"};
}

void RemoveRunFiles(const Paths& paths) {
  std::remove(paths.corpus.c_str());
  std::remove(paths.index.c_str());
  std::remove(paths.slow_log.c_str());
}

/// The program as the timed phase sees it.
struct Deployment {
  std::unique_ptr<Session> session;
  std::unique_ptr<mate::MateServer> server;  // wt_served only

  void Stop() {
    if (server != nullptr) server->Stop();
    server.reset();
    session.reset();
  }
};

mate::ServerOptions ServedOptions(std::chrono::milliseconds slow_threshold,
                                  const std::string& slow_log) {
  mate::ServerOptions options;
  options.tenant_cache_bytes = kTenantCacheBytes;
  options.slow_query_threshold = slow_threshold;
  options.slow_query_log_path = slow_log;
  return options;
}

/// The serial spec of distinct query `q`; `served` evaluates the key-only
/// request a client sends, as the server does.
mate::QuerySpec ReferenceSpec(const Inputs& in, size_t q, bool served) {
  mate::QuerySpec spec = served ? mate::SpecFromRequest(in.requests[q])
                                : LocalSpec(*in.pool[q]);
  spec.intra_query_threads = 1;
  return spec;
}

/// Reference results: serial, cache-off Discover of every distinct query,
/// untimed.
std::vector<DiscoveryResult> ReferencePass(Session* session,
                                           const Inputs& in, bool served) {
  std::vector<DiscoveryResult> refs;
  refs.reserve(in.pool.size());
  for (size_t q = 0; q < in.pool.size(); ++q) {
    refs.push_back(ValueOrDie(session->Discover(ReferenceSpec(in, q, served)),
                              "reference query"));
  }
  return refs;
}

/// SCR (no super-key row filter) over an evenly spaced sample of the pool:
/// returns {SCR false-positive rows, MATE false-positive rows}.
std::pair<uint64_t, uint64_t> ScrFalsePositives(
    Session* session, const Inputs& in, bool served,
    const std::vector<DiscoveryResult>& refs) {
  uint64_t scr = 0;
  uint64_t mate_fp = 0;
  const size_t step = std::max<size_t>(1, in.pool.size() / kScrSample);
  for (size_t q = 0; q < in.pool.size(); q += step) {
    mate::QuerySpec spec = ReferenceSpec(in, q, served);
    spec.options.use_row_filter = false;
    const DiscoveryResult r =
        ValueOrDie(session->Discover(spec), "SCR query");
    scr += r.stats.FalsePositiveRows();
    mate_fp += refs[q].stats.FalsePositiveRows();
  }
  return {scr, mate_fp};
}

/// Untimed work done once per run, on the last set-up (so the reference
/// pass also warms the session the timed phase uses), at the point where a
/// serial, cache-off session over the fully resident lake exists.
struct Untimed {
  std::vector<DiscoveryResult> refs;
  std::pair<uint64_t, uint64_t> scr_fp{0, 0};
  double reference_ms = 0.0;  // mean Discover wall of the reference pass
};

void RunUntimed(Session* session, const Inputs& in, bool served, bool trace,
                Untimed* out) {
  const auto start = Clock::now();
  out->refs = ReferencePass(session, in, served);
  out->reference_ms =
      SecondsSince(start) * 1e3 / static_cast<double>(in.pool.size());
  if (trace) out->scr_fp = ScrFalsePositives(session, in, served, out->refs);
}

/// od_budget's saved lake, opened lazily (phased) under the budget, with
/// nothing resident yet.
std::unique_ptr<Session> OpenCold(const Inputs& in, const Paths& paths) {
  SessionOptions cold;
  cold.corpus_path = paths.corpus;
  cold.index_path = paths.index;
  cold.num_threads = 1;
  cold.cache_bytes = 0;
  cold.corpus_budget_bytes = in.cell_bytes / kOdBudgetDivisor;
  return OpenReady(std::move(cold), "cold open");
}

/// One set-up of the workload's program, returning its timed seconds:
/// Session::Open with build_index through WaitUntilReady, plus
/// MateServer::Start (wt_served) or the save and the cold phased open under
/// the budget (od_budget). Fills `untimed` when it is non-null.
double SetUp(const RunArgs& args, const Inputs& in, const Paths& paths,
             Untimed* untimed, Deployment* out) {
  const bool served = args.workload == "wt_served";
  SessionOptions options = BuildOptions(
      in.lake.corpus, served ? SessionOptions::kDefaultCacheBytes : 0);
  auto start = Clock::now();
  std::unique_ptr<Session> built = OpenReady(std::move(options), "build");
  double seconds = SecondsSince(start);

  if (args.workload == "nary_join") {
    if (untimed != nullptr) {
      RunUntimed(built.get(), in, false, args.trace, untimed);
    }
    out->session = std::move(built);
    return seconds;
  }
  if (served) {
    if (untimed != nullptr) {
      built->ConfigureCache(0);
      RunUntimed(built.get(), in, true, args.trace, untimed);
      built->ConfigureCache(SessionOptions::kDefaultCacheBytes);
    }
    out->session = std::move(built);
    out->server = std::make_unique<mate::MateServer>(
        out->session.get(), ServedOptions(std::chrono::milliseconds(0), ""));
    start = Clock::now();
    OkOrDie(out->server->Start(), "server start");
    return seconds + SecondsSince(start);
  }
  // od_budget: save, then reopen lazily from disk under the budget.
  start = Clock::now();
  OkOrDie(built->Save(paths.corpus, paths.index), "save");
  seconds += SecondsSince(start);
  if (untimed != nullptr) {
    RunUntimed(built.get(), in, false, args.trace, untimed);
  }
  built.reset();
  start = Clock::now();
  out->session = OpenCold(in, paths);
  return seconds + SecondsSince(start);
}

// ---- closed loops -----------------------------------------------------------

struct LoopOutcome {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  /// Work counters of the first kCounterPrefix queries.
  DiscoveryStats prefix_work;
  mate::ResidencyStats residency_before;
  mate::ResidencyStats residency_at_prefix;
  SpanTotals spans;

  double Qps() const {
    return wall_s > 0 ? static_cast<double>(attempted - failed) / wall_s : 0;
  }
};

/// One caller, in-process: Discover, wait, check against the reference,
/// repeat until `seconds` have passed and at least `min_queries` ran.
LoopOutcome RunLocal(Session* session, const Inputs& in,
                     const std::vector<DiscoveryResult>& refs, double seconds,
                     size_t min_queries, bool traced, RunReport* report) {
  LoopOutcome out;
  const std::vector<uint32_t>& stream = in.streams[0];
  out.residency_before = session->corpus_residency();
  const auto start = Clock::now();
  for (size_t i = 0;; ++i) {
    if (out.attempted >= min_queries && SecondsSince(start) >= seconds) break;
    const uint32_t q = stream[i % stream.size()];
    mate::QuerySpec spec = LocalSpec(*in.pool[q]);
    std::unique_ptr<mate::QueryTrace> trace;
    uint32_t root = mate::QueryTrace::kNoParent;
    if (traced) {
      // The benchmark's own span around the call; Session::Discover roots
      // its pipeline spans under it.
      trace = std::make_unique<mate::QueryTrace>("perfbench");
      root = trace->BeginSpan("perfbench.discover");
      trace->SetAttachParent(root);
      spec.trace = trace.get();
    }
    const auto t0 = Clock::now();
    mate::Result<DiscoveryResult> result = session->Discover(spec);
    const auto t1 = Clock::now();
    Sample sample{std::chrono::duration<double>(t1 - start).count(),
                  std::chrono::duration<double, std::milli>(t1 - t0).count(),
                  true};
    if (traced) {
      trace->EndSpan(root);
      out.spans.Add(trace->Spans());
    }
    ++out.attempted;
    if (!result.ok()) {
      sample.ok = false;
      std::cerr << "query failed: " << result.status().ToString() << "\n";
    } else if (!SameTopK(result->top_k, refs[q].top_k)) {
      sample.ok = false;
      report->Fail("query " + std::to_string(q) +
                   " returned a top-k that differs from its reference");
    } else if (out.attempted <= kCounterPrefix) {
      out.prefix_work.Merge(result->stats);
    }
    if (!sample.ok) ++out.failed;
    out.samples.push_back(sample);
    if (out.attempted == kCounterPrefix) {
      out.residency_at_prefix = session->corpus_residency();
    }
  }
  out.wall_s = SecondsSince(start);
  return out;
}

/// Server-side counters read through the observer connection.
struct ServerView {
  mate::ServerStatsSnapshot stats;
  double latency_sum_s = 0.0;
  uint64_t latency_count = 0;
};

double MetricValue(const std::string& page, const std::string& name) {
  std::istringstream lines(page);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0.0;
}

ServerView ReadServer(mate::MateClient* observer) {
  ServerView view;
  view.stats = ValueOrDie(observer->Stats(), "STATS");
  const std::string page = ValueOrDie(observer->Metrics(), "METRICS");
  view.latency_sum_s = MetricValue(page, "mate_query_latency_seconds_sum");
  view.latency_count = static_cast<uint64_t>(
      MetricValue(page, "mate_query_latency_seconds_count"));
  return view;
}

struct ServedOutcome {
  LoopOutcome loop;
  ServerView before;
  ServerView after;
  mate::ResultCacheStats cache_before;
  mate::ResultCacheStats cache_after;
};

/// kTenants callers, each on its own MateClient connection: send, wait for
/// the reply, check it against the reference, repeat until `seconds` pass.
ServedOutcome RunServed(Deployment* dep, const Inputs& in,
                        const std::vector<DiscoveryResult>& refs,
                        double seconds, RunReport* report) {
  const uint16_t port = dep->server->port();
  mate::MateClient observer =
      ValueOrDie(mate::MateClient::Connect("127.0.0.1", port), "connect");
  std::vector<mate::MateClient> clients;
  std::vector<std::vector<mate::QueryRequest>> requests(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    clients.push_back(
        ValueOrDie(mate::MateClient::Connect("127.0.0.1", port), "connect"));
    for (const mate::QueryRequest& r : in.requests) {
      requests[t].push_back(r);
      requests[t].back().tenant = "tenant-" + std::to_string(t);
    }
  }

  ServedOutcome out;
  out.before = ReadServer(&observer);
  out.cache_before = dep->session->cache_stats();
  struct PerTenant {
    std::vector<Sample> samples;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
    double finished_s = 0.0;
  };
  std::vector<PerTenant> tenants(kTenants);
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        PerTenant& me = tenants[t];
        const std::vector<uint32_t>& stream = in.streams[t];
        for (size_t i = 0; SecondsSince(start) < seconds; ++i) {
          const uint32_t q = stream[i % stream.size()];
          const auto t0 = Clock::now();
          mate::Result<mate::QueryResponse> response =
              clients[t].Query(requests[t][q]);
          const auto t1 = Clock::now();
          Sample sample{
              std::chrono::duration<double>(t1 - start).count(),
              std::chrono::duration<double, std::milli>(t1 - t0).count(),
              true};
          ++me.attempted;
          if (!response.ok() || !response->status.ok()) {
            sample.ok = false;
          } else if (!SameServedTopK(response->results, refs[q].top_k)) {
            sample.ok = false;
            ++me.mismatched;
          }
          me.samples.push_back(sample);
          if (!sample.ok) ++me.failed;
          if (!response.ok()) break;  // the transport is gone
        }
        me.finished_s = SecondsSince(start);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const PerTenant& t : tenants) {
    out.loop.samples.insert(out.loop.samples.end(), t.samples.begin(),
                            t.samples.end());
    out.loop.attempted += t.attempted;
    out.loop.failed += t.failed;
    out.loop.wall_s = std::max(out.loop.wall_s, t.finished_s);
    if (t.mismatched > 0) {
      report->Fail(std::to_string(t.mismatched) +
                   " served replies differ from their references");
    }
  }
  out.after = ReadServer(&observer);
  out.cache_after = dep->session->cache_stats();
  return out;
}

// ---- checks shared by every run ---------------------------------------------

void CheckReferences(const RunArgs& args, const Inputs& in,
                     const std::vector<DiscoveryResult>& refs,
                     RunReport* report) {
  Digest d;
  for (const DiscoveryResult& r : refs) DigestTopK(r.top_k, &d);
  size_t checked = 0;
  for (size_t q = 0; q < in.pool.size() && checked < kBruteForceSample; ++q) {
    const QueryCase& qc = *in.pool[q];
    if (qc.key_columns.size() != 2) continue;
    std::string why;
    if (!MatchesBruteForce(in.lake.corpus, qc.query, qc.key_columns,
                           refs[q].top_k, &why)) {
      report->Fail("query " + std::to_string(q) + ": " + why);
    }
    ++checked;
  }
  CheckPinnedDigests(args, in.digest, d.Hex(), report);
}

double PerQuery(double total, uint64_t queries) {
  return queries > 0 ? total / static_cast<double>(queries) : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- the two kinds of run ---------------------------------------------------

void EndToEnd(const RunArgs& args, const Inputs& in, const Paths& paths,
              RunReport* report) {
  ResetPeakRss();
  Untimed untimed;
  Deployment dep;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    dep.Stop();
    setups.push_back(SetUp(args, in, paths,
                           i + 1 == kSetupRepeats ? &untimed : nullptr,
                           &dep));
  }
  CheckReferences(args, in, untimed.refs, report);

  // The index image is what Session::Save writes; od_budget saved it during
  // set-up, the resident workloads save it here, untimed.
  if (args.workload != "od_budget") {
    OkOrDie(dep.session->Save(paths.corpus, paths.index), "save");
  }
  const double index_bytes = static_cast<double>(FileSize(paths.index));

  const CpuTimes cpu_before = ReadCpuTimes();
  LoopOutcome loop;
  if (args.workload == "wt_served") {
    loop = RunServed(&dep, in, untimed.refs, args.seconds, report).loop;
  } else {
    loop = RunLocal(dep.session.get(), in, untimed.refs, args.seconds, 0,
                    false, report);
  }
  const double steal = StealFraction(cpu_before, ReadCpuTimes());
  const double peak_rss = PeakRssMb();
  dep.Stop();

  report->attempted = loop.attempted;
  report->failed = loop.failed;
  const uint64_t n = loop.samples.size();
  const size_t windows = std::clamp<size_t>(n / kMinWindowSamples, 1,
                                            kMaxWindows);
  const WindowedStats w = MedianOverWindows(loop.samples, loop.wall_s,
                                            windows);
  report->Add("setup_s", Median(setups), "s", setups.size());
  report->Add("qps", w.qps, "1/s", loop.attempted);
  report->Add("p50_ms", w.p50_ms, "ms", n);
  // The gated tail is p90: a window holds a hundred queries or more on
  // average, so about ten or more samples lie beyond it, while p99 moved by
  // a third between identical runs on a contended VM (printed below).
  report->Add("p90_ms", w.p90_ms, "ms", n);
  report->Add("peak_rss_mb", peak_rss, "MB");
  report->Add("index_bytes_per_cell_byte",
              Ratio(index_bytes, static_cast<double>(in.cell_bytes)),
              "B/B");
  const std::vector<double> latency_ms = Latencies(loop.samples);
  std::cout << "host: " << HostRecordJson(args, steal) << "\n";
  std::cout << "timed phase: " << loop.attempted << " queries in "
            << loop.wall_s << " s, " << w.windows << " windows; whole phase: "
            << loop.Qps() << " qps, p50 " << Percentile(latency_ms, 0.50)
            << " ms, p90 " << Percentile(latency_ms, 0.90) << " ms, p99 "
            << Percentile(latency_ms, 0.99) << " ms with " << n / 100
            << " samples beyond it\n";
  std::cout << "windows (qps/p90_ms):";
  for (size_t i = 0; i < w.windows; ++i) {
    std::cout << " " << w.window_qps[i] << "/" << w.window_p90_ms[i];
  }
  std::cout << "\n";
}

void PerLayer(const RunArgs& args, const Inputs& in, const Paths& paths,
              RunReport* report) {
  // The benchmark's own spans around each call into a layer.
  mate::QueryTrace bench("perfbench." + args.workload);
  const auto timed_span = [&bench](std::string_view name, auto&& fn) {
    const uint32_t id = bench.BeginSpan(name);
    const auto start = Clock::now();
    fn();
    const double s = SecondsSince(start);
    bench.EndSpan(id);
    return s;
  };

  // ---- index + storage: build, save, open, ready, re-key --------------------
  SessionOptions build_options = BuildOptions(in.lake.corpus, 0);
  std::unique_ptr<Session> built;
  const double build_s = timed_span("index.build", [&] {
    built = OpenReady(std::move(build_options), "build");
  });
  const double index_save_s = timed_span("index.save", [&] {
    OkOrDie(mate::SaveIndex(built->index(), built->hash_family(),
                            built->corpus_stats(), paths.index),
            "SaveIndex");
  });
  const double corpus_save_s = timed_span("storage.save", [&] {
    OkOrDie(mate::SaveCorpus(built->corpus(), built->corpus_stats(),
                             paths.corpus),
            "SaveCorpus");
  });
  built.reset();
  const double image_mb = static_cast<double>(FileSize(paths.index)) / 1e6;
  std::unique_ptr<Session> opened;
  const double open_s = timed_span("index.open", [&] {
    SessionOptions options;
    options.corpus_path = paths.corpus;
    options.index_path = paths.index;
    options.num_threads = 1;
    options.cache_bytes = 0;
    opened = std::make_unique<Session>(
        ValueOrDie(Session::Open(std::move(options)), "open"));
  });
  const double ready_s = timed_span("index.ready", [&] {
    OkOrDie(opened->WaitUntilReady(), "readiness");
  });
  const double rekey_s = timed_span("hash.rekey", [&] {
    OkOrDie(opened->ResetHash(opened->hash_family(),
                              mate::IndexBuildOptions().hash_bits),
            "ResetHash");
  });
  opened.reset();

  // ---- the workload's own deployment ----------------------------------------
  Untimed untimed;
  Deployment dep;
  timed_span("setup", [&] { SetUp(args, in, paths, &untimed, &dep); });
  CheckReferences(args, in, untimed.refs, report);

  DiscoveryStats work;  // reference pass over the distinct queries
  for (const DiscoveryResult& r : untimed.refs) work.Merge(r.stats);
  const uint64_t distinct = untimed.refs.size();

  const double half = args.seconds / 2;
  const bool served = args.workload == "wt_served";
  const CpuTimes cpu_before = ReadCpuTimes();
  LoopOutcome untraced;
  LoopOutcome traced;
  ServedOutcome served_untraced;
  if (served) {
    timed_span("pass.untraced", [&] {
      served_untraced = RunServed(&dep, in, untimed.refs, half, report);
    });
    untraced = served_untraced.loop;
    // The traced pass needs a server armed for slow-query dumps at the
    // 1 ms floor; it starts from an empty cache like the first pass did.
    dep.server->Stop();
    dep.session->InvalidateCache();
    dep.server = std::make_unique<mate::MateServer>(
        dep.session.get(),
        ServedOptions(std::chrono::milliseconds(1), paths.slow_log));
    OkOrDie(dep.server->Start(), "server start");
    timed_span("pass.traced", [&] {
      traced = RunServed(&dep, in, untimed.refs, half, report).loop;
    });
    dep.server->Stop();
    std::ifstream log(paths.slow_log);
    std::string line;
    while (std::getline(log, line)) {
      if (!traced.spans.AddJsonLine(line)) {
        report->Fail("unparsable slow-query log line");
      }
    }
  } else {
    timed_span("pass.untraced", [&] {
      untraced = RunLocal(dep.session.get(), in, untimed.refs, half,
                          kCounterPrefix, false, report);
    });
    if (args.workload == "od_budget") {
      dep.session.reset();
      dep.session = OpenCold(in, paths);
    }
    timed_span("pass.traced", [&] {
      traced = RunLocal(dep.session.get(), in, untimed.refs, half, 0, true,
                        report);
    });
  }
  const double steal = StealFraction(cpu_before, ReadCpuTimes());
  dep.Stop();
  report->attempted = untraced.attempted + traced.attempted;
  report->failed = untraced.failed + traced.failed;

  // ---- core executor --------------------------------------------------------
  const SpanTotals& sp = traced.spans;
  const uint64_t nt = sp.traces();
  report->Add("core.row_loop_ms", PerQuery(sp.SelfMs({"row_loop"}), nt), "ms",
              nt);
  report->Add("core.prepare_ms", PerQuery(sp.SelfMs({"prepare"}), nt), "ms",
              nt);
  report->Add("core.fetch_ms",
              PerQuery(sp.SelfMs({"fetch", "fetch_shard"}), nt), "ms", nt);
  report->Add("core.evaluate_ms",
              PerQuery(sp.SelfMs({"evaluate", "evaluate_shard",
                                  "rule1_prune"}),
                       nt),
              "ms", nt);
  report->Add("core.merge_ms", PerQuery(sp.SelfMs({"merge"}), nt), "ms", nt);
  const auto per_distinct = [&](uint64_t v) {
    return PerQuery(static_cast<double>(v), distinct);
  };
  report->Add("core.pl_items_per_query", per_distinct(work.pl_items_fetched),
              "count", distinct);
  report->Add("core.tables_evaluated_per_query",
              per_distinct(work.tables_evaluated), "count", distinct);
  report->Add("core.pruned_rule1_per_query",
              per_distinct(work.tables_pruned_rule1), "count", distinct);
  report->Add("core.pruned_rule2_per_query",
              per_distinct(work.tables_pruned_rule2), "count", distinct);
  report->Add("core.rows_checked_per_query", per_distinct(work.rows_checked),
              "count", distinct);
  report->Add("core.value_comparisons_per_query",
              per_distinct(work.value_comparisons), "count", distinct);

  // ---- core session + result cache ------------------------------------------
  // In-process: the benchmark's span around Session::Discover in the
  // untraced pass. Served: Discover runs inside the server, so this is the
  // reference pass's (cache-off) mean instead.
  const double untraced_mean_ms = Mean(Latencies(untraced.samples));
  report->Add("core.discover_ms",
              served ? untimed.reference_ms : untraced_mean_ms, "ms",
              served ? distinct : untraced.samples.size());
  const uint64_t hits =
      served_untraced.cache_after.hits - served_untraced.cache_before.hits;
  const uint64_t lookups =
      hits + served_untraced.cache_after.misses -
      served_untraced.cache_before.misses;
  report->Add("core.cache_hit_ratio",
              Ratio(static_cast<double>(hits), static_cast<double>(lookups)),
              "frac", lookups);
  report->Add("core.cache_lookup_ms",
              PerQuery(sp.SelfMs({"cache_lookup"}), nt), "ms", nt);

  // ---- index super-key filter + index lifecycle -----------------------------
  report->Add("index.filter_precision", work.Precision(), "frac", distinct);
  report->Add("index.filter_pass_ratio",
              Ratio(static_cast<double>(work.rows_sent_to_verification),
                    static_cast<double>(work.rows_checked)),
              "frac", distinct);
  report->Add("index.fp_pruned_vs_scr",
              static_cast<double>(untimed.scr_fp.first) /
                  static_cast<double>(std::max<uint64_t>(
                      1, untimed.scr_fp.second)),
              "x");
  report->Add("index.build_s", build_s, "s");
  report->Add("hash.rekey_s", rekey_s, "s");
  report->Add("index.save_s", index_save_s, "s");
  report->Add("index.open_s", open_s, "s");
  report->Add("index.ready_s", ready_s, "s");
  report->Add("index.image_mb", image_mb, "MB");

  // ---- storage residency ----------------------------------------------------
  const DiscoveryStats& pw = untraced.prefix_work;
  const uint64_t prefix = served ? 0 : kCounterPrefix;
  report->Add("storage.materialize_ms",
              PerQuery(sp.SelfMs({"materialize"}), nt), "ms", nt);
  // Discover's self time is its idle-point eviction (EvictToBudget).
  report->Add("storage.evict_ms", PerQuery(sp.SelfMs({"discover"}), nt),
              "ms", nt);
  report->Add("storage.tables_materialized_per_query",
              PerQuery(static_cast<double>(pw.tables_materialized), prefix),
              "count", prefix);
  report->Add("storage.cell_mb_materialized_per_query",
              PerQuery(static_cast<double>(pw.cell_bytes_materialized) / 1e6,
                       prefix),
              "MB", prefix);
  report->Add(
      "storage.evictions_per_query",
      PerQuery(static_cast<double>(untraced.residency_at_prefix.evictions -
                                   untraced.residency_before.evictions),
               prefix),
      "count", prefix);
  report->Add("storage.resident_hit_ratio",
              1.0 - Ratio(static_cast<double>(pw.tables_materialized),
                          static_cast<double>(pw.tables_evaluated)),
              "frac", prefix);
  report->Add(
      "storage.peak_resident_mb",
      static_cast<double>(untraced.residency_at_prefix.peak_resident_bytes) /
          1e6,
      "MB");
  report->Add("storage.save_s", corpus_save_s, "s");

  // ---- server (all zero off wt_served) --------------------------------------
  const ServerView& b = served_untraced.before;
  const ServerView& a = served_untraced.after;
  const uint64_t completed = a.stats.completed - b.stats.completed;
  // A cache hit reports the runtime its cached result recorded; count only
  // the misses' share of the summed runtime as dispatcher execution.
  const double runtime_s = a.stats.total_query_seconds -
                           b.stats.total_query_seconds;
  const uint64_t misses = a.stats.cache_misses - b.stats.cache_misses;
  const uint64_t served_hits = a.stats.cache_hits - b.stats.cache_hits;
  const double exec_s =
      runtime_s * Ratio(static_cast<double>(misses),
                        static_cast<double>(misses + served_hits));
  const double server_latency_ms =
      PerQuery((a.latency_sum_s - b.latency_sum_s) * 1e3,
               a.latency_count - b.latency_count);
  const double exec_ms = PerQuery(exec_s * 1e3, completed);
  report->Add("server.exec_ms", exec_ms, "ms", completed);
  report->Add("server.queue_wait_ms", server_latency_ms - exec_ms, "ms",
              completed);
  report->Add("server.transport_ms",
              served ? untraced_mean_ms - server_latency_ms : 0.0, "ms",
              completed);
  report->Add("server.dispatcher_busy_frac", Ratio(exec_s, untraced.wall_s),
              "frac");
  report->Add("server.p99_ms",
              static_cast<double>(a.stats.latency_p99_us) / 1e3, "ms",
              a.stats.latency_count);

  // ---- obs ------------------------------------------------------------------
  report->Add("obs.trace_overhead_frac",
              1.0 - Ratio(traced.Qps(), untraced.Qps()), "frac");

  std::ofstream chrome(paths.chrome_trace);
  chrome << bench.ToChromeTraceJson();
  std::cout << "host: " << HostRecordJson(args, steal) << "\n";
  std::cout << "traced run: " << nt << " traced queries";
  if (served) {
    std::cout << " (slow-query dumps over 1 ms only: of "
              << traced.attempted << " requests)";
  }
  std::cout << "; benchmark spans in " << paths.chrome_trace << "\n";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"nary_join", "wt_served",
                                                 "od_budget"};
  return names;
}

void RunWorkload(const RunArgs& args, RunReport* report) {
  const Paths paths = MakePaths(args);
  const auto gen_start = Clock::now();
  const Inputs in = Generate(args);
  std::cout << "inputs: " << in.lake.corpus.NumTables() << " tables, "
            << in.cell_bytes << " cell bytes, " << in.pool.size()
            << " distinct queries, generated in " << SecondsSince(gen_start)
            << " s\n";
  if (args.trace) {
    PerLayer(args, in, paths, report);
  } else {
    EndToEnd(args, in, paths, report);
  }
  RemoveRunFiles(paths);
}

}  // namespace perfbench
