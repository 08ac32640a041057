// E8 — §7.5.4: how many PL items each initial-column strategy fetches on
// the OD (10000) query set. The paper reports averages of 179 (cardinality
// heuristic) vs 202 (column order) vs 248 (longest string) vs 728 (worst
// case), with 83 for the ground-truth best choice.
//
// Paper shape to hold: Best <= Cardinality < ColumnOrder <= TLS << Worst.
//
// Every strategy's volume is read from PlItemsPerPosition, the count that
// ranks the key positions during discovery. Best, the fewest PL items, is
// the engine's default, so the bench exits 1 unless, on every query,
// Session::EstimatePlItems under the default options (the auto-parallel
// gate's figure: what the query fetches) equals Best's volume.

#include <algorithm>
#include <iostream>
#include <iterator>
#include <vector>

#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "core/init_column.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

// Non-empty posting lists among the distinct values the combos hold at
// key position `pos` — the metric §7.5.4 reports as "PLs".
uint64_t CountListsAt(const KeyCombos& combos,
                      const std::vector<PostingSpan>& lists, size_t pos) {
  std::vector<char> seen(combos.values.size(), 0);
  uint64_t count = 0;
  for (size_t c = 0; c < combos.size(); ++c) {
    const uint32_t id = combos.combo(c)[pos];
    if (!seen[id] && !lists[id].empty()) ++count;
    seen[id] = 1;
  }
  return count;
}

}  // namespace

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
  constexpr size_t kNumStrategies = std::size(strategies);

  std::vector<double> total_items(kNumStrategies, 0.0);
  std::vector<double> total_lists(kNumStrategies, 0.0);
  size_t mismatches = 0;
  for (const QueryCase& qc : queries) {
    const KeyCombos combos = InternKeyCombos(qc.query, qc.key_columns);
    const std::vector<PostingSpan> lists = ProbeKeyValues(combos, index);
    const std::vector<uint64_t> items = PlItemsPerPosition(combos, lists);
    for (size_t s = 0; s < kNumStrategies; ++s) {
      const size_t pos = SelectInitColumn(qc.query, qc.key_columns, combos,
                                          strategies[s], &items);
      total_items[s] += static_cast<double>(items[pos]);
      total_lists[s] += static_cast<double>(CountListsAt(combos, lists, pos));
    }

    QuerySpec spec;
    spec.table = &qc.query;
    spec.key_columns = qc.key_columns;
    const Result<uint64_t> fetched = session.EstimatePlItems(spec);
    if (!fetched.ok()) {
      std::cerr << "EstimatePlItems failed: " << fetched.status().ToString()
                << "\n";
      return 1;
    }
    const uint64_t cheapest = *std::min_element(items.begin(), items.end());
    if (*fetched != cheapest) {
      std::cerr << "query " << qc.query.name() << ": the default fetches "
                << *fetched << " PL items, the cheapest key column "
                << cheapest << "\n";
      ++mismatches;
    }
  }

  ReportTable table({"Strategy", "Avg PLs fetched", "Avg PL items",
                     "Items vs Best"});
  const double num_queries = static_cast<double>(queries.size());
  const double best_avg = total_items[0] / num_queries;  // kBestCase
  for (size_t s = 0; s < kNumStrategies; ++s) {
    const double avg_items = total_items[s] / num_queries;
    table.AddRow({std::string(InitColumnStrategyName(strategies[s])),
                  FormatDouble(total_lists[s] / num_queries, 0),
                  FormatDouble(avg_items, 0),
                  best_avg > 0 ? FormatDouble(avg_items / best_avg, 2) + "x"
                               : "-"});
  }
  table.Print(std::cout);
  std::cout << "\nShape check (paper: 83 / 179 / 202 / 248 / 728): the "
               "cardinality heuristic lands close to Best and far below "
               "Worst because PL lengths are power-law distributed.\n";
  std::cout << "Default fetch = Best on " << queries.size() - mismatches
            << " of " << queries.size() << " queries\n";
  return mismatches == 0 ? 0 : 1;
}
