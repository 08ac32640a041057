// E7 — §7.5.1: precision as k varies from 2 to 20 on WT (100). Larger k
// weakens the table-filter stopping rule, so more (and weaker) candidate
// tables get their rows filtered.
//
// Paper shape to hold: Xash has the highest precision at every k and gains
// slightly (~4%) as k grows; BF stays flat; the weaker hashes drift down.
//
// The semi-join (DiscoveryOptions::use_semi_join) is off: it keeps the
// super-key filter from seeing combos whose rarest value a table lacks,
// which raises every hash's precision, and this sweep compares the hashes.
// Queries fetch by §6.1's cardinality rule
// (InitColumnStrategy::kMinCardinality), so the rows filtered are the
// paper's.

#include <iostream>
#include <thread>

#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.25;
  defaults.queries = 5;
  BenchArgs args = ParseBenchArgs(argc, argv, "topk_sweep", defaults);
  if (args.threads == 0) args.threads = std::thread::hardware_concurrency();
  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = args.queries;
  config.seed = args.seed;

  std::cout << "== E7 / §7.5.1: precision vs k on WT (100) (scale="
            << args.scale << ", threads=" << args.threads << ") ==\n\n";

  Workload workload = MakeWebTablesWorkload(config);
  const auto& queries = workload.query_sets[1].second;  // WT (100)

  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.num_threads = args.threads;
  session_options.cache_bytes = 0;  // precision sweep, no reuse to exploit
  Session session = OpenOrDie(std::move(session_options));

  const HashFamily families[] = {HashFamily::kXash, HashFamily::kBloom,
                                 HashFamily::kLessHashingBloom,
                                 HashFamily::kHashTable,
                                 HashFamily::kSimHash};
  const int ks[] = {2, 5, 10, 15, 20};

  ReportTable table({"k", "Xash", "BF", "LHBF", "HT", "SimHash"});
  // precisions[k][family]
  std::vector<std::vector<std::string>> cells(
      std::size(ks), std::vector<std::string>(std::size(families)));
  for (size_t f = 0; f < std::size(families); ++f) {
    if (auto status = session.ResetHash(families[f], 128); !status.ok()) {
      std::cerr << "ResetHash failed: " << status.ToString() << "\n";
      return 1;
    }
    for (size_t ki = 0; ki < std::size(ks); ++ki) {
      DiscoveryOptions mate_options;
      mate_options.k = ks[ki];
      mate_options.init_strategy = InitColumnStrategy::kMinCardinality;
      mate_options.use_semi_join = false;
      QuerySetMetrics metrics = RunOrDie(
          RunMateWithOptions(session, queries, mate_options,
                             std::string(HashFamilyName(families[f]))));
      cells[ki][f] = FormatDouble(metrics.avg_precision, 3);
    }
  }
  for (size_t ki = 0; ki < std::size(ks); ++ki) {
    std::vector<std::string> row = {std::to_string(ks[ki])};
    for (size_t f = 0; f < std::size(families); ++f) {
      row.push_back(cells[ki][f]);
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nShape check (paper): Xash top at every k and roughly "
               "non-decreasing; BF flat.\n";
  return 0;
}
