// E8 — §7.5.4: how many PL items each initial-column strategy fetches on
// the OD (10000) query set. The paper reports averages of 179 (cardinality
// heuristic) vs 202 (column order) vs 248 (longest string) vs 728 (worst
// case), with 83 for the ground-truth best choice.
//
// Paper shape to hold: Best <= Cardinality < ColumnOrder <= TLS << Worst.

#include <iostream>

#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "core/init_column.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.2;
  defaults.queries = 8;
  BenchArgs args =
      ParseBenchArgs(argc, argv, "init_column_selection", defaults);
  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = args.queries;
  config.seed = args.seed;

  std::cout << "== E8 / §7.5.4: initial-column strategies, avg fetched PL "
               "items on OD (10000) (scale="
            << args.scale << ") ==\n\n";

  Workload workload = MakeOpenDataWorkload(config);
  const auto& queries = workload.query_sets[2].second;  // OD (10000)

  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.cache_bytes = 0;
  Session session = OpenOrDie(std::move(session_options));
  const InvertedIndex& index = session.index();

  const InitColumnStrategy strategies[] = {
      InitColumnStrategy::kBestCase, InitColumnStrategy::kMinCardinality,
      InitColumnStrategy::kColumnOrder, InitColumnStrategy::kLongestString,
      InitColumnStrategy::kWorstCase};

  ReportTable table({"Strategy", "Avg PLs fetched", "Avg PL items",
                     "Items vs Best"});
  double best_avg = 0.0;
  for (InitColumnStrategy strategy : strategies) {
    double total_items = 0.0;
    double total_lists = 0.0;
    for (const QueryCase& qc : queries) {
      size_t pos = SelectInitColumn(
          qc.query, qc.key_columns,
          InternKeyCombos(qc.query, qc.key_columns), strategy, &index);
      total_items += static_cast<double>(CountPlItemsForColumn(
          qc.query, qc.key_columns[pos], index));
      total_lists += static_cast<double>(CountPostingListsForColumn(
          qc.query, qc.key_columns[pos], index));
    }
    double avg_items = total_items / static_cast<double>(queries.size());
    double avg_lists = total_lists / static_cast<double>(queries.size());
    if (strategy == InitColumnStrategy::kBestCase) best_avg = avg_items;
    table.AddRow({std::string(InitColumnStrategyName(strategy)),
                  FormatDouble(avg_lists, 0), FormatDouble(avg_items, 0),
                  best_avg > 0 ? FormatDouble(avg_items / best_avg, 2) + "x"
                               : "-"});
  }
  table.Print(std::cout);
  std::cout << "\nShape check (paper: 83 / 179 / 202 / 248 / 728): the "
               "cardinality heuristic lands close to Best and far below "
               "Worst because PL lengths are power-law distributed.\n";
  return 0;
}
