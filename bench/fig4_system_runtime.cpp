// E2 — Figure 4: discovery runtime of MATE (Xash, 128 bits) vs the
// single-column adaptations SCR, MCR, SCR-JOSIE, MCR-JOSIE over the six
// WT/OD query ladders (log-scale bars in the paper).
//
// Paper shape: MATE fastest everywhere (up to 61x vs MCR, 13x vs SCR); no
// baseline dominates the others across all sets; runtimes grow with query
// cardinality. The bench prints, from the runtimes it measured, the rows
// where MATE led or trailed each baseline.

#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

struct ThroughputTotals {
  size_t queries = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // sum of per-query runtimes
};

constexpr SystemKind kSystems[] = {SystemKind::kMate, SystemKind::kScr,
                                   SystemKind::kMcr, SystemKind::kScrJosie,
                                   SystemKind::kMcrJosie};
constexpr const char* kSystemNames[] = {"Mate (Xash 128)", "SCR", "MCR",
                                        "SCR Josie", "MCR Josie"};

// One query set's summed runtimes, in kSystems order.
struct RowRuntimes {
  std::string name;
  std::vector<double> seconds;
};

void RunWorkload(Workload workload, int k, unsigned threads,
                 ReportTable* table, ThroughputTotals* totals,
                 std::vector<RowRuntimes>* runtimes) {
  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.num_threads = threads;
  session_options.cache_bytes = 0;  // runtime bench: every query pays full cost
  Session session = OpenOrDie(std::move(session_options));
  JosieIndex josie = JosieIndex::Build(session.corpus());

  for (const auto& [name, queries] : workload.query_sets) {
    std::vector<std::string> row = {name};
    runtimes->push_back({name, {}});
    double mate_runtime = 0.0;
    for (SystemKind kind : kSystems) {
      QuerySetMetrics metrics =
          RunOrDie(RunSystem(kind, session, &josie, queries, k, name));
      runtimes->back().seconds.push_back(metrics.total_runtime_s);
      if (kind == SystemKind::kMate) mate_runtime = metrics.total_runtime_s;
      row.push_back(FormatSeconds(metrics.total_runtime_s));
      if (kind != SystemKind::kMate && mate_runtime > 0) {
        row.back() += " (" +
                      FormatDouble(metrics.total_runtime_s / mate_runtime, 1) +
                      "x)";
      }
      totals->queries += metrics.queries;
      totals->wall_seconds += metrics.batch.wall_seconds;
      totals->cpu_seconds += metrics.total_runtime_s;
    }
    table->AddRow(std::move(row));
  }
}

// Per baseline, the rows where Mate's summed runtime was below (led) or
// above (trailed) the baseline's, each with the baseline / Mate ratio.
void PrintMeasuredShape(const std::vector<RowRuntimes>& runtimes) {
  std::cout << "\nMeasured shape (this run), per baseline:\n";
  for (size_t b = 1; b < std::size(kSystems); ++b) {
    std::string led;
    std::string trailed;
    size_t num_led = 0;
    for (const RowRuntimes& row : runtimes) {
      const double mate = row.seconds[0];
      const double other = row.seconds[b];
      if (mate == other) continue;
      std::string& list = mate < other ? led : trailed;
      if (mate < other) ++num_led;
      list += (list.empty() ? "" : ", ") + row.name;
      if (mate > 0) list += " (" + FormatDouble(other / mate, 1) + "x)";
    }
    std::cout << "  vs " << kSystemNames[b] << ": Mate led in "
              << num_led << " of " << runtimes.size() << " rows"
              << (led.empty() ? "" : " [" + led + "]") << "; trailed in "
              << (trailed.empty() ? "none" : trailed) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.25;
  defaults.queries = 4;
  BenchArgs args = ParseBenchArgs(argc, argv, "fig4_system_runtime",
                                  defaults);
  if (args.threads == 0) args.threads = std::thread::hardware_concurrency();
  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = args.queries;
  config.seed = args.seed;

  std::cout << "== E2 / Figure 4: Mate vs single-column systems, total "
               "runtime per query set (k="
            << args.k << ", scale=" << args.scale << ", threads="
            << args.threads << ") ==\n"
            << "Columns show summed per-query seconds over " << args.queries
            << " queries; (Nx) = slowdown vs Mate.\n\n";

  std::vector<std::string> header = {"Query set"};
  header.insert(header.end(), std::begin(kSystemNames),
                std::end(kSystemNames));
  ReportTable table(std::move(header));
  ThroughputTotals totals;
  std::vector<RowRuntimes> runtimes;
  RunWorkload(MakeWebTablesWorkload(config), args.k, args.threads, &table,
              &totals, &runtimes);
  RunWorkload(MakeOpenDataWorkload(config), args.k, args.threads, &table,
              &totals, &runtimes);
  table.Print(std::cout);
  PrintMeasuredShape(runtimes);
  std::cout << "\nBatch throughput (threads=" << args.threads << "): "
            << totals.queries << " system-queries in "
            << FormatSeconds(totals.wall_seconds) << " wall = "
            << FormatDouble(totals.queries / totals.wall_seconds, 1)
            << " q/s; effective parallelism "
            << FormatDouble(totals.cpu_seconds / totals.wall_seconds, 2)
            << "x (summed per-query time / wall; per-query times include "
               "contention, so compare wall across --threads runs for true "
               "speedup).\n";
  std::cout << "\nPaper's shape, for comparison: Mate fastest in every "
               "row; MCR degrades worst on the web-table corpus; SCR-based "
               "systems slower than MCR-based on OD but competitive on WT.\n";
  return 0;
}
