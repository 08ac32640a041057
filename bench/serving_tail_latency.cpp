// Open-loop tail-latency harness for mate_server (ROADMAP "mate_server"):
// starts the real server (in this process, but driven purely over TCP
// sockets and the wire protocol — nothing bypasses the front-end), then
// fires Zipf-distributed query streams from multiple tenants at a constant
// arrival rate and reports p50/p90/p99/p99.9 of the *client-observed*
// latency, measured from each request's scheduled arrival time. Open-loop
// is the honest protocol for tail latency: a slow server does not slow the
// arrival process down, so queueing delay accumulates into the measured
// numbers instead of silently throttling the load (closed-loop coordinated
// omission).
//
// Three scenarios:
//   steady   — arrival rate ~50% of measured capacity, deep queue: every
//              request must be served, and every served top-k must be
//              bit-identical to an in-process Session::Discover of the
//              same query (hard gate).
//   overload — arrival rate ~4x capacity against a tiny admission queue:
//              the server MUST shed with kOverloaded (hard gate), must not
//              crash or grow its queue beyond the bound, and the p99 of
//              *admitted* requests must stay finite — admission control is
//              what keeps served latency bounded when offered load is not.
//   mixed    — a giant query (synthesized until its pre-execution PL
//              estimate clears the executor's auto-parallel gate) blended
//              into the small-query pool, offered at ~4x capacity, run
//              twice with identical seeds: once with steering off (the
//              executor's auto gate fans the giant out every time) and
//              once with --steering=auto (dequeue-time SLO steering
//              degrades it to serial while the queue is deep or the p99 is
//              over target). Hard gates: zero bit-identity violations in
//              BOTH runs, steering must take serial decisions under
//              overload, and the steered p99 must not exceed the
//              fixed-fanout p99 — on an oversubscribed box, fan-out under
//              pressure is pure overhead and steering must claw it back.
//
// Every JSON record carries the tenant count and offered arrival rate
// (bench_util AddWithLoad), so the trajectory records the load shape.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "core/query_executor.h"
#include "server/client.h"
#include "server/server.h"
#include "util/latency_histogram.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

using Clock = std::chrono::steady_clock;

struct LoadResult {
  LatencyHistogram served_us;  // latency of admitted+served requests
  uint64_t served = 0;
  uint64_t shed = 0;
  uint64_t transport_errors = 0;
  uint64_t mismatches = 0;  // served top-k != in-process expectation
  double elapsed_seconds = 0.0;
};

bool SameServedTopK(const std::vector<ServedResult>& served,
                    const DiscoveryResult& expected) {
  if (served.size() != expected.top_k.size()) return false;
  for (size_t i = 0; i < served.size(); ++i) {
    const ServedResult& s = served[i];
    const TableResult& e = expected.top_k[i];
    if (s.table_id != e.table_id || s.joinability != e.joinability ||
        s.mapping != e.best_mapping) {
      return false;
    }
  }
  return true;
}

/// Drives `connections` sockets per tenant at a combined constant arrival
/// rate of `arrival_rate` requests/s for `requests_per_connection` requests
/// each. Requests are spread round-robin over the connections; each
/// connection thread owns its slice of the global schedule, sleeps until
/// each scheduled arrival, and measures latency from that *scheduled* time
/// (overdue arrivals fire immediately and the backlog counts).
LoadResult RunOpenLoop(uint16_t port, const std::vector<QueryRequest>& pool,
                       const std::vector<const DiscoveryResult*>& expected,
                       size_t tenants, size_t connections_per_tenant,
                       double arrival_rate, size_t requests_per_connection,
                       uint64_t seed) {
  const size_t total_connections = tenants * connections_per_tenant;
  std::vector<LoadResult> per_connection(total_connections);
  std::vector<std::thread> threads;
  threads.reserve(total_connections);
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  const double interval_s =
      static_cast<double>(total_connections) / arrival_rate;
  for (size_t c = 0; c < total_connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = per_connection[c];
      auto client = MateClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        out.transport_errors = requests_per_connection;
        return;
      }
      const std::string tenant =
          "tenant-" + std::to_string(c / connections_per_tenant);
      Rng rng(seed + 7919 * c);
      ZipfDistribution zipf(pool.size(), /*s=*/1.1);
      for (size_t i = 0; i < requests_per_connection; ++i) {
        // Interleaved global schedule: connection c owns arrivals
        // c, c + N, c + 2N, ... of the combined constant-rate stream.
        const double offset_s =
            (static_cast<double>(i) * static_cast<double>(total_connections) +
             static_cast<double>(c)) *
            interval_s / static_cast<double>(total_connections);
        const auto scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset_s));
        std::this_thread::sleep_until(scheduled);  // no-op when overdue
        const size_t q = zipf.Sample(&rng);
        QueryRequest request = pool[q];
        request.tenant = tenant;
        auto response = client->Query(request);
        const auto done = Clock::now();
        if (!response.ok()) {
          ++out.transport_errors;
          break;  // transport is gone; stop this connection
        }
        if (response->status.IsOverloaded()) {
          ++out.shed;
          continue;
        }
        if (!response->status.ok()) {
          ++out.transport_errors;
          continue;
        }
        ++out.served;
        if (!SameServedTopK(response->results, *expected[q])) {
          ++out.mismatches;
        }
        const auto waited = done - scheduled;
        out.served_us.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(waited)
                .count()));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult merged;
  const auto end = Clock::now();
  merged.elapsed_seconds =
      std::chrono::duration<double>(end - start).count();
  for (const LoadResult& r : per_connection) {
    merged.served_us.Merge(r.served_us);
    merged.served += r.served;
    merged.shed += r.shed;
    merged.transport_errors += r.transport_errors;
    merged.mismatches += r.mismatches;
  }
  return merged;
}

/// Closed-loop capacity of a running server in requests/s, measured over
/// the wire so framing/IPC overhead is part of it: one socket per
/// dispatcher (so every dispatcher stays busy), each sending `rounds`
/// passes over `requests` back to back, starting at staggered offsets.
/// Returns 0 when a connection or a probe query fails.
double ProbeCapacity(const MateServer& server,
                     const std::vector<QueryRequest>& requests,
                     size_t rounds) {
  const size_t connections = server.dispatchers();
  std::atomic<size_t> probes{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = MateClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failed = true;
        return;
      }
      const size_t offset = c * requests.size() / connections;
      for (size_t i = 0; i < rounds * requests.size(); ++i) {
        QueryRequest probe = requests[(offset + i) % requests.size()];
        probe.tenant = "probe";
        auto response = client->Query(probe);
        if (!response.ok() || !response->status.ok()) {
          failed = true;
          return;
        }
        probes.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return failed ? 0.0 : static_cast<double>(probes.load()) / seconds;
}

/// Value of the first unlabeled sample line `name <value>` on a Prometheus
/// text page; -1 when absent.
int64_t ParseMetricValue(const std::string& page, const std::string& name) {
  size_t start = 0;
  while (start < page.size()) {
    size_t end = page.find('\n', start);
    if (end == std::string::npos) end = page.size();
    const std::string line = page.substr(start, end - start);
    if (line.rfind(name + " ", 0) == 0) {
      return std::strtoll(line.c_str() + name.size() + 1, nullptr, 10);
    }
    start = end + 1;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.2;
  defaults.queries = 12;
  defaults.threads = 2;
  BenchArgs args =
      ParseBenchArgs(argc, argv, "serving_tail_latency", defaults);
  if (args.threads == 0) args.threads = std::thread::hardware_concurrency();

  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = args.queries;
  config.seed = args.seed;
  Workload workload = MakeWebTablesWorkload(config);

  std::vector<const QueryCase*> pool_cases;
  for (const QueryCase& qc : workload.query_sets[1].second) {
    pool_cases.push_back(&qc);
  }

  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.num_threads = args.threads;
  session_options.cache_bytes = size_t{64} << 20;
  Session session = OpenOrDie(std::move(session_options));

  // In-process ground truth, computed through the same session before any
  // server runs. Serving bit-identity is gated against these results.
  std::vector<QueryRequest> pool;
  std::vector<DiscoveryResult> expected_store;
  expected_store.reserve(pool_cases.size());
  for (const QueryCase* qc : pool_cases) {
    QuerySpec spec;
    spec.table = &qc->query;
    spec.key_columns = qc->key_columns;
    spec.options.k = args.k;
    auto result = session.Discover(spec);
    if (!result.ok()) {
      std::cerr << "in-process ground truth failed: "
                << result.status().ToString() << "\n";
      return 1;
    }
    expected_store.push_back(std::move(*result));
    pool.push_back(
        MakeQueryRequest(qc->query, qc->key_columns, args.k, ""));
  }
  std::vector<const DiscoveryResult*> expected;
  for (const DiscoveryResult& r : expected_store) expected.push_back(&r);

  const size_t kTenants = 2;
  BenchJsonWriter json("serving_tail_latency", args.threads);
  ReportTable table({"Scenario", "Rate (req/s)", "Served", "Shed", "p50",
                     "p90", "p99", "p99.9"});

  // ---- capacity probe: closed-loop RTTs, one socket per dispatcher -----
  double capacity_rps = 0.0;
  size_t dispatchers = 0;
  {
    ServerOptions options;
    options.max_queue_depth = 64;
    MateServer server(&session, options);
    if (Status s = server.Start(); !s.ok()) {
      std::cerr << "server start failed: " << s.ToString() << "\n";
      return 1;
    }
    dispatchers = server.dispatchers();
    capacity_rps = ProbeCapacity(server, pool, /*rounds=*/3);
    server.Stop();
    if (capacity_rps <= 0.0) {
      std::cerr << "probe query failed\n";
      return 1;
    }
  }
  std::cout << "== Open-loop serving tail latency (pool=" << pool.size()
            << " queries, tenants=" << kTenants << ", dispatchers="
            << dispatchers << ", measured capacity ~"
            << FormatDouble(capacity_rps, 0) << " req/s) ==\n\n";

  int exit_code = 0;

  // ---- steady: 50% of capacity, deep queue -----------------------------
  {
    ServerOptions options;
    options.max_queue_depth = 64;
    options.tenant_cache_bytes = size_t{16} << 20;
    MateServer server(&session, options);
    if (Status s = server.Start(); !s.ok()) {
      std::cerr << "server start failed: " << s.ToString() << "\n";
      return 1;
    }
    const double rate = 0.5 * capacity_rps;
    // Scrape METRICS mid-load on its own connection: observability must
    // answer while the dispatchers are busy, and the page must stay valid.
    std::atomic<bool> midrun_metrics_ok{false};
    std::thread scraper([&server, &midrun_metrics_ok] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      auto client = MateClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      auto page = client->Metrics();
      midrun_metrics_ok =
          page.ok() && ParseMetricValue(*page, "mate_queries_total") >= 0 &&
          page->find("# TYPE mate_query_latency_seconds histogram") !=
              std::string::npos;
    });
    LoadResult r = RunOpenLoop(server.port(), pool, expected, kTenants,
                               /*connections_per_tenant=*/4, rate,
                               /*requests_per_connection=*/40, args.seed);
    scraper.join();
    // Quiesced: the page's admitted counter must equal the server's own
    // admission count exactly.
    int64_t page_queries_total = -1;
    uint64_t stats_admitted = 0;
    {
      auto client = MateClient::Connect("127.0.0.1", server.port());
      if (client.ok()) {
        auto page = client->Metrics();
        if (page.ok()) {
          page_queries_total = ParseMetricValue(*page, "mate_queries_total");
        }
      }
      stats_admitted = server.stats().admitted;
    }
    server.Stop();
    table.AddRow({"steady", FormatDouble(rate, 0), std::to_string(r.served),
                  std::to_string(r.shed),
                  std::to_string(r.served_us.Percentile(0.50)) + "us",
                  std::to_string(r.served_us.Percentile(0.90)) + "us",
                  std::to_string(r.served_us.Percentile(0.99)) + "us",
                  std::to_string(r.served_us.Percentile(0.999)) + "us"});
    json.AddWithLoad("steady", "p50", r.served_us.Percentile(0.50), "us",
                     kTenants, rate);
    json.AddWithLoad("steady", "p90", r.served_us.Percentile(0.90), "us",
                     kTenants, rate);
    json.AddWithLoad("steady", "p99", r.served_us.Percentile(0.99), "us",
                     kTenants, rate);
    json.AddWithLoad("steady", "p999", r.served_us.Percentile(0.999), "us",
                     kTenants, rate);
    json.AddWithLoad("steady", "served", static_cast<double>(r.served),
                     "requests", kTenants, rate);
    json.AddWithLoad("steady", "shed_ratio",
                     static_cast<double>(r.shed) /
                         static_cast<double>(r.served + r.shed),
                     "ratio", kTenants, rate);
    if (r.transport_errors > 0) {
      std::cerr << "GATE FAILED (steady): " << r.transport_errors
                << " transport errors\n";
      exit_code = 1;
    }
    if (r.mismatches > 0) {
      std::cerr << "GATE FAILED (steady): " << r.mismatches
                << " served results diverged from in-process Discover\n";
      exit_code = 1;
    }
    if (r.served == 0) {
      std::cerr << "GATE FAILED (steady): nothing served\n";
      exit_code = 1;
    }
    if (!midrun_metrics_ok.load()) {
      std::cerr << "GATE FAILED (steady): mid-run METRICS scrape did not "
                   "return a valid page\n";
      exit_code = 1;
    }
    if (page_queries_total < 0 ||
        static_cast<uint64_t>(page_queries_total) != stats_admitted) {
      std::cerr << "GATE FAILED (steady): METRICS mate_queries_total="
                << page_queries_total << " != admitted=" << stats_admitted
                << "\n";
      exit_code = 1;
    }
    json.AddWithLoad("steady", "metrics_queries_total",
                     static_cast<double>(page_queries_total), "requests",
                     kTenants, rate);
  }

  // ---- overload: ~4x capacity into a 4-deep queue ----------------------
  // More always-overdue connections (at least 16) than the dispatchers and
  // the 4-deep queue can hold at once: the structural guarantee that
  // admission control engages, whatever the core count.
  {
    ServerOptions options;
    options.max_queue_depth = 4;
    options.tenant_cache_bytes = size_t{16} << 20;
    MateServer server(&session, options);
    if (Status s = server.Start(); !s.ok()) {
      std::cerr << "server start failed: " << s.ToString() << "\n";
      return 1;
    }
    const double rate = 4.0 * capacity_rps;
    const size_t connections_per_tenant =
        std::max<size_t>(8, dispatchers + options.max_queue_depth);
    LoadResult r = RunOpenLoop(server.port(), pool, expected, kTenants,
                               connections_per_tenant, rate,
                               /*requests_per_connection=*/25, args.seed + 1);
    const ServerStatsSnapshot stats = server.stats();
    server.Stop();
    table.AddRow({"overload", FormatDouble(rate, 0),
                  std::to_string(r.served), std::to_string(r.shed),
                  std::to_string(r.served_us.Percentile(0.50)) + "us",
                  std::to_string(r.served_us.Percentile(0.90)) + "us",
                  std::to_string(r.served_us.Percentile(0.99)) + "us",
                  std::to_string(r.served_us.Percentile(0.999)) + "us"});
    json.AddWithLoad("overload", "p50", r.served_us.Percentile(0.50), "us",
                     kTenants, rate);
    json.AddWithLoad("overload", "p90", r.served_us.Percentile(0.90), "us",
                     kTenants, rate);
    json.AddWithLoad("overload", "p99", r.served_us.Percentile(0.99), "us",
                     kTenants, rate);
    json.AddWithLoad("overload", "p999", r.served_us.Percentile(0.999), "us",
                     kTenants, rate);
    json.AddWithLoad("overload", "served", static_cast<double>(r.served),
                     "requests", kTenants, rate);
    json.AddWithLoad("overload", "shed_ratio",
                     static_cast<double>(r.shed) /
                         static_cast<double>(r.served + r.shed),
                     "ratio", kTenants, rate);
    if (r.transport_errors > 0) {
      std::cerr << "GATE FAILED (overload): " << r.transport_errors
                << " transport errors (shedding must be a typed response, "
                   "not a dropped connection)\n";
      exit_code = 1;
    }
    if (r.mismatches > 0) {
      std::cerr << "GATE FAILED (overload): " << r.mismatches
                << " served results diverged from in-process Discover\n";
      exit_code = 1;
    }
    if (r.shed == 0) {
      std::cerr << "GATE FAILED (overload): offered ~4x capacity into a "
                   "4-deep queue but nothing was shed\n";
      exit_code = 1;
    }
    if (r.served > 0 && r.served_us.Percentile(0.99) == 0) {
      std::cerr << "GATE FAILED (overload): admitted p99 is zero\n";
      exit_code = 1;
    }
    if (stats.queue_depth > stats.queue_capacity) {
      std::cerr << "GATE FAILED (overload): queue grew beyond its bound\n";
      exit_code = 1;
    }
  }

  // ---- mixed giant+small at 4x capacity: steering off vs auto ----------
  {
    // Synthesize the giant: a single-column query of corpus values, grown
    // until its pre-execution PL estimate clears the executor's
    // auto-parallel gate with margin — so the steering-off baseline
    // genuinely fans it out on every dispatch.
    Table giant_table("giant");
    giant_table.AddColumn("a");
    uint64_t giant_estimate = 0;
    {
      const Corpus& corpus = session.corpus();
      const uint64_t target = 2 * QueryExecutor::kAutoParallelMinItems;
      std::unordered_set<std::string> seen;
      for (TableId t = 0;
           t < corpus.NumTables() && giant_estimate < target; ++t) {
        const Table& src = corpus.table(t);
        if (src.NumColumns() == 0) continue;
        const size_t rows = std::min<size_t>(src.NumRows(), 8);
        for (size_t r = 0; r < rows; ++r) {
          if (src.IsRowDeleted(r)) continue;
          const std::string value(src.cell(r, 0));
          if (value.empty() || !seen.insert(value).second) continue;
          (void)giant_table.AppendRow({value});
        }
        QuerySpec probe;
        probe.table = &giant_table;
        probe.key_columns = {0};
        probe.options.k = args.k;
        auto e = session.EstimatePlItems(probe);
        if (e.ok()) giant_estimate = *e;
      }
    }
    std::cout << "\nmixed: giant query " << giant_table.NumRows()
              << " rows, estimated PL items " << giant_estimate
              << " (auto-parallel gate "
              << QueryExecutor::kAutoParallelMinItems << ")\n";

    // In-process ground truth for the giant (no server is running now).
    QuerySpec giant_spec;
    giant_spec.table = &giant_table;
    giant_spec.key_columns = {0};
    giant_spec.options.k = args.k;
    auto giant_expected = session.Discover(giant_spec);
    if (!giant_expected.ok()) {
      std::cerr << "giant ground truth failed: "
                << giant_expected.status().ToString() << "\n";
      return 1;
    }

    // Giant first: Zipf rank 0 is hottest, so giant traffic dominates.
    std::vector<QueryRequest> mixed_pool;
    std::vector<const DiscoveryResult*> mixed_expected;
    mixed_pool.push_back(MakeQueryRequest(giant_table, {0}, args.k, ""));
    mixed_expected.push_back(&*giant_expected);
    for (size_t i = 0; i < pool.size(); ++i) {
      mixed_pool.push_back(pool[i]);
      mixed_expected.push_back(expected[i]);
    }

    // Capacity of the mixed pool (fixed-fanout server, cache disabled).
    double mixed_capacity_rps = 0.0;
    {
      ServerOptions options;
      options.max_queue_depth = 64;
      options.tenant_cache_bytes = 1;  // nothing fits: every query executes
      MateServer server(&session, options);
      if (Status s = server.Start(); !s.ok()) {
        std::cerr << "server start failed: " << s.ToString() << "\n";
        return 1;
      }
      mixed_capacity_rps = ProbeCapacity(server, mixed_pool, /*rounds=*/1);
      server.Stop();
      if (mixed_capacity_rps <= 0.0) {
        std::cerr << "mixed probe query failed\n";
        return 1;
      }
    }
    const double rate = 4.0 * mixed_capacity_rps;

    // Identical seeds and schedules; the only difference is the steering
    // mode, so the p99 comparison isolates the dequeue-time policy.
    const auto run_mixed = [&](SteeringMode mode,
                               ServerStatsSnapshot* stats_out) {
      ServerOptions options;
      options.max_queue_depth = 8;
      // A 1-byte partition per tenant: no served result ever fits, so
      // every request executes — steering must win on execution shape,
      // not on result caching.
      options.tenant_cache_bytes = 1;
      options.steering = mode;
      options.target_p99 = std::chrono::milliseconds(2);
      MateServer server(&session, options);
      if (Status s = server.Start(); !s.ok()) {
        std::cerr << "server start failed: " << s.ToString() << "\n";
        std::exit(1);
      }
      // One request per connection: every latency sample is a pure
      // queue-wait + service measurement from its own scheduled arrival.
      // With multi-shot connections the server that sheds LESS (steering)
      // accumulates per-connection backlog into its served histogram —
      // coordinated omission would punish the better policy.
      LoadResult r = RunOpenLoop(server.port(), mixed_pool, mixed_expected,
                                 kTenants, /*connections_per_tenant=*/48,
                                 rate, /*requests_per_connection=*/1,
                                 args.seed + 2);
      *stats_out = server.stats();
      server.Stop();
      return r;
    };
    ServerStatsSnapshot off_stats;
    ServerStatsSnapshot auto_stats;
    const LoadResult off = run_mixed(SteeringMode::kOff, &off_stats);
    const LoadResult steered = run_mixed(SteeringMode::kAuto, &auto_stats);

    for (const auto& [label, r] :
         {std::pair<const char*, const LoadResult&>{"mixed steering=off",
                                                    off},
          std::pair<const char*, const LoadResult&>{"mixed steering=auto",
                                                    steered}}) {
      table.AddRow({label, FormatDouble(rate, 0), std::to_string(r.served),
                    std::to_string(r.shed),
                    std::to_string(r.served_us.Percentile(0.50)) + "us",
                    std::to_string(r.served_us.Percentile(0.90)) + "us",
                    std::to_string(r.served_us.Percentile(0.99)) + "us",
                    std::to_string(r.served_us.Percentile(0.999)) + "us"});
    }
    json.AddWithLoad("mixed_off", "p50", off.served_us.Percentile(0.50),
                     "us", kTenants, rate);
    json.AddWithLoad("mixed_off", "p99", off.served_us.Percentile(0.99),
                     "us", kTenants, rate);
    json.AddWithLoad("mixed_off", "served", static_cast<double>(off.served),
                     "requests", kTenants, rate);
    json.AddWithLoad("mixed_auto", "p50",
                     steered.served_us.Percentile(0.50), "us", kTenants,
                     rate);
    json.AddWithLoad("mixed_auto", "p99",
                     steered.served_us.Percentile(0.99), "us", kTenants,
                     rate);
    json.AddWithLoad("mixed_auto", "served",
                     static_cast<double>(steered.served), "requests",
                     kTenants, rate);
    json.AddWithLoad("mixed_auto", "steer_serial",
                     static_cast<double>(auto_stats.steering_serial),
                     "decisions", kTenants, rate);
    json.AddWithLoad("mixed_auto", "steer_partial",
                     static_cast<double>(auto_stats.steering_partial),
                     "decisions", kTenants, rate);
    json.AddWithLoad("mixed_auto", "steer_full",
                     static_cast<double>(auto_stats.steering_full),
                     "decisions", kTenants, rate);
    json.AddWithLoad("mixed_auto", "giant_estimate",
                     static_cast<double>(giant_estimate), "pl_items",
                     kTenants, rate);

    if (off.transport_errors + steered.transport_errors > 0) {
      std::cerr << "GATE FAILED (mixed): transport errors (off="
                << off.transport_errors
                << ", auto=" << steered.transport_errors << ")\n";
      exit_code = 1;
    }
    if (off.mismatches + steered.mismatches > 0) {
      std::cerr << "GATE FAILED (mixed): " << off.mismatches << "+"
                << steered.mismatches
                << " served results diverged from in-process Discover — "
                   "steering must never change served bits\n";
      exit_code = 1;
    }
    if (off.served == 0 || steered.served == 0) {
      std::cerr << "GATE FAILED (mixed): nothing served (off="
                << off.served << ", auto=" << steered.served << ")\n";
      exit_code = 1;
    }
    if (auto_stats.steering_serial == 0) {
      std::cerr << "GATE FAILED (mixed): 4x overload but steering never "
                   "degraded a query to serial\n";
      exit_code = 1;
    }
    if (off_stats.steering_serial + off_stats.steering_partial +
            off_stats.steering_full >
        0) {
      std::cerr << "GATE FAILED (mixed): steering=off server counted "
                   "steering decisions\n";
      exit_code = 1;
    }
    if (giant_estimate < QueryExecutor::kAutoParallelMinItems) {
      std::cerr << "GATE FAILED (mixed): giant query estimate "
                << giant_estimate
                << " never cleared the auto-parallel gate — the baseline "
                   "is not fanning out\n";
      exit_code = 1;
    }
    if (steered.served_us.Percentile(0.99) >
        off.served_us.Percentile(0.99)) {
      std::cerr << "GATE FAILED (mixed): steered p99 "
                << steered.served_us.Percentile(0.99)
                << "us exceeds fixed-fanout p99 "
                << off.served_us.Percentile(0.99) << "us\n";
      exit_code = 1;
    }
  }

  table.Print(std::cout);
  std::cout << "\nShape check: steady-state p99 stays near single-query "
               "service time; under overload the shed ratio absorbs the "
               "excess while admitted p99 stays bounded by (queue depth + "
               "1) x service time.\n";
  if (!json.WriteTo(args.json_path)) return 1;
  return exit_code;
}
