// E6 — Figure 6: scalability in the join-key size |Q| (2..10 columns, the
// §7.5.3 open-data setup): (a) runtime, (b) precision, for Xash, BF, HT,
// and SCR.
//
// Paper shape to hold: runtime falls monotonically as |Q| grows (more
// 1-bits in the query super key -> harder to mask; fewer joinable rows ->
// table filter rule 2 fires earlier); precision dips around |Q|=3 then
// recovers from |Q|=4 upward.
//
// The semi-join (DiscoveryOptions::use_semi_join) is off: the paper's
// runtime and precision are those of Algorithm 1, and the semi-join would
// raise precision for a reason other than the hash. For the same reason
// every system fetches by §6.1's cardinality rule
// (InitColumnStrategy::kMinCardinality).

#include <iostream>

#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.3;
  defaults.queries = 4;
  BenchArgs args = ParseBenchArgs(argc, argv, "fig6_key_size", defaults);
  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = args.queries;
  config.seed = args.seed;

  std::cout << "== E6 / Figure 6: key-size sweep |Q| = 2..10 (k=" << args.k
            << ", scale=" << args.scale << ") ==\n\n";

  Workload workload =
      MakeKeySizeWorkload(config, {2, 3, 4, 5, 6, 7, 8, 9, 10});

  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.cache_bytes = 0;  // runtime bench: no cached reuse
  Session session = OpenOrDie(std::move(session_options));

  struct FilterConfig {
    const char* label;
    HashFamily family;  // ignored when scr
    bool scr;
  };
  const FilterConfig filters[] = {
      {"Xash", HashFamily::kXash, false},
      {"BF", HashFamily::kBloom, false},
      {"HT", HashFamily::kHashTable, false},
      {"SCR", HashFamily::kXash, true},
  };

  ReportTable runtime_table(
      {"|Q|", "Xash (s)", "BF (s)", "HT (s)", "SCR (s)"});
  ReportTable precision_table(
      {"|Q|", "Xash", "BF", "HT", "SCR"});

  // results[set][filter]
  std::vector<std::vector<QuerySetMetrics>> results(
      workload.query_sets.size(),
      std::vector<QuerySetMetrics>(std::size(filters)));
  for (size_t f = 0; f < std::size(filters); ++f) {
    const FilterConfig& filter = filters[f];
    if (!filter.scr) {
      if (auto status = session.ResetHash(filter.family, 128); !status.ok()) {
        std::cerr << "ResetHash failed: " << status.ToString() << "\n";
        return 1;
      }
    }
    for (size_t s = 0; s < workload.query_sets.size(); ++s) {
      DiscoveryOptions mate_options;
      mate_options.k = args.k;
      mate_options.init_strategy = InitColumnStrategy::kMinCardinality;
      mate_options.use_row_filter = !filter.scr;
      mate_options.use_semi_join = false;
      results[s][f] = RunOrDie(RunMateWithOptions(
          session, workload.query_sets[s].second, mate_options,
          filter.label));
    }
  }

  for (size_t s = 0; s < workload.query_sets.size(); ++s) {
    std::vector<std::string> rt = {workload.query_sets[s].first};
    std::vector<std::string> pr = {workload.query_sets[s].first};
    for (size_t f = 0; f < std::size(filters); ++f) {
      rt.push_back(FormatSeconds(results[s][f].total_runtime_s));
      pr.push_back(FormatMeanStd(results[s][f].avg_precision,
                                 results[s][f].std_precision));
    }
    runtime_table.AddRow(std::move(rt));
    precision_table.AddRow(std::move(pr));
  }
  std::cout << "(a) runtime:\n";
  runtime_table.Print(std::cout);
  std::cout << "\n(b) precision:\n";
  precision_table.Print(std::cout);
  std::cout << "\nShape check (paper): Xash runtime decreases monotonically "
               "with |Q|; precision dips at |Q|=3 and recovers from 4 "
               "upward; Xash dominates BF/HT at every size.\n";
  return 0;
}
