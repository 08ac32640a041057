// Batch discovery on a work-stealing pool: runs the same query set through
// Session::DiscoverBatch at increasing thread counts, checks that every run
// returns exactly the serial results, and prints the throughput scaling
// table — then re-runs the batch with the session's result cache enabled to
// show repeated streams collapsing into copies. This is the multi-tenant
// serving shape: many independent discovery requests in flight against one
// shared immutable index.
//
// The closing section shows the other parallelism axis on its own: ONE
// query fanned out over the same pool via QuerySpec::intra_query_threads
// (the sharded executor of core/query_executor.h) — the shape for a single
// giant query with nothing to batch — again bit-identical to its serial
// run. A batch runs each of its queries exactly that way, knobs included,
// so the two axes nest on one pool.

#include <iostream>
#include <thread>
#include <vector>

#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: example brevity

int main() {
  WorkloadConfig config;
  config.scale = 0.25;
  config.queries_per_set = 8;
  Workload workload = MakeWebTablesWorkload(config);

  // Pool every query set into one batch — the engine does not care that the
  // queries have different shapes.
  std::vector<QuerySpec> batch;
  for (const auto& [name, cases] : workload.query_sets) {
    for (const QueryCase& qc : cases) {
      QuerySpec spec;
      spec.table = &qc.query;
      spec.key_columns = qc.key_columns;
      spec.options.k = 10;
      batch.push_back(std::move(spec));
    }
  }

  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.num_threads = 1;
  session_options.cache_bytes = 0;  // scaling rows below measure raw work
  auto opened = Session::Open(std::move(session_options));
  if (!opened.ok()) {
    std::cerr << "Session::Open failed: " << opened.status().ToString()
              << "\n";
    return 1;
  }
  Session session = std::move(*opened);
  std::cout << "corpus: " << session.corpus().NumTables()
            << " tables, batch: " << batch.size() << " queries\n\n";

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<unsigned> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  std::vector<DiscoveryResult> serial;
  double serial_wall = 0.0;
  ReportTable table({"Threads", "Wall", "q/s", "Speedup", "p50", "p99",
                     "Identical"});
  for (unsigned threads : thread_counts) {
    session.SetNumThreads(threads);
    auto result = session.DiscoverBatch(batch);
    if (!result.ok()) {
      std::cerr << "DiscoverBatch failed: " << result.status().ToString()
                << "\n";
      return 1;
    }
    bool identical = true;
    if (threads == 1) {
      serial = result->results;
      serial_wall = result->stats.wall_seconds;
    } else {
      identical = SameTopK(serial, result->results);
    }
    table.AddRow({std::to_string(result->stats.num_threads),
                  FormatSeconds(result->stats.wall_seconds),
                  FormatDouble(result->stats.QueriesPerSecond(), 1),
                  FormatDouble(serial_wall / result->stats.wall_seconds, 2) +
                      "x",
                  FormatSeconds(result->stats.latency_p50_s),
                  FormatSeconds(result->stats.latency_p99_s),
                  identical ? "yes" : "NO"});
    if (!identical) {
      std::cerr << "ERROR: results diverged from the serial run at "
                << threads << " threads\n";
      return 1;
    }
  }
  table.Print(std::cout);

  // Same batch again, now with the result cache on: the first pass fills
  // it, the second is pure hits — and still bit-identical.
  session.ConfigureCache(SessionOptions::kDefaultCacheBytes);
  auto fill = session.DiscoverBatch(batch);
  auto cached = session.DiscoverBatch(batch);
  if (!fill.ok() || !cached.ok()) {
    std::cerr << "cached re-run failed\n";
    return 1;
  }
  if (!SameTopK(serial, cached->results)) {
    std::cerr << "ERROR: cached results diverged from the serial run\n";
    return 1;
  }
  std::cout << "\nCached re-run: " << cached->stats.cache_hits << "/"
            << batch.size() << " hits, wall "
            << FormatSeconds(cached->stats.wall_seconds) << " vs "
            << FormatSeconds(fill->stats.wall_seconds)
            << " for the cache-filling pass.\n";

  // The other parallelism axis: one query sharded across the pool. The
  // cache is off again so the sharded run really recomputes.
  session.ConfigureCache(0);
  QuerySpec one = batch.front();
  one.intra_query_threads = 1;
  auto one_serial = session.Discover(one);
  one.intra_query_threads = 0;  // auto: fans out when the query is big
  one.intra_query_shards = 4;   // force the sharded path for the demo
  auto one_sharded = session.Discover(one);
  if (!one_serial.ok() || !one_sharded.ok()) {
    std::cerr << "intra-query run failed\n";
    return 1;
  }
  if (!SameTopK({*one_serial}, {*one_sharded})) {
    std::cerr << "ERROR: sharded single query diverged from serial\n";
    return 1;
  }
  std::cout << "\nIntra-query fan-out of one query: serial "
            << FormatSeconds(one_serial->stats.runtime_seconds) << " vs "
            << one_sharded->stats.shards_used << " shards on "
            << one_sharded->stats.fanout_threads << " workers "
            << FormatSeconds(one_sharded->stats.runtime_seconds)
            << " — identical top-k.\n";

  std::cout << "\nEvery run returned bit-identical top-k lists; only the "
               "wall clock changed.\n";
  return 0;
}
