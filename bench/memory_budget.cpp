// Memory governance (ROADMAP "corpus memory governance"): discovery under a
// corpus residency byte budget (SessionOptions::corpus_budget_bytes) vs the
// classic unlimited run, over a corpus ~4x the budget.
//
// Queries verify joins from the index's posting lists and read no corpus
// cells, so neither session should materialize anything while the stream
// runs. The corpus still has the shapes that used to make queries parse:
//
//   * many small "hot group" tables probed by 2-column-key queries,
//     cycling disjoint groups twice;
//   * one giant wide table probed by a single-column-key query once per
//     cycle.
//
// Hard gates (exit 1), all over the budgeted session unless noted:
//   * top-k results bit-identical to the unlimited run;
//   * peak resident corpus bytes <= 1.1x the budget (the budget is a real
//     ceiling, not a suggestion);
//   * both query streams, unlimited and budgeted, parse 0 cell bytes.
//
// CI runs this in bench-smoke; --json feeds the BENCH_*.json trajectory.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "core/session.h"
#include "storage/corpus_io.h"
#include "util/stopwatch.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

// Distinct key combos per group/giant query — also the query row count.
constexpr size_t kCombos = 50;
// Hot tables per group: one query's full-materialization working set.
constexpr size_t kTablesPerGroup = 2;
constexpr size_t kHotRows = 320;
constexpr size_t kGiantCols = 24;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::cerr << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

// Group values ("g<g>a<j>", "g<g>b<j>") are disjoint across groups and from
// the giant's vocabulary, so each query's posting traffic stays confined to
// its own group.
Table MakeHotTable(size_t group, size_t member) {
  Table table("hot_g" + std::to_string(group) + "_" + std::to_string(member));
  table.AddColumn("ka");
  table.AddColumn("kb");
  table.AddColumn("payload");
  for (size_t r = 0; r < kHotRows; ++r) {
    const std::string j = std::to_string(r % kCombos);
    (void)table.AppendRow({"g" + std::to_string(group) + "a" + j,
                           "g" + std::to_string(group) + "b" + j,
                           "p" + std::to_string(group * 10 + member) + "x" +
                               std::to_string(r)});
  }
  return table;
}

// One narrow key column of probed values ("giv<j>") plus many fat junk
// columns no query ever touches.
Table MakeGiantTable(size_t rows) {
  Table giant("giant_wide");
  giant.AddColumn("gk");
  for (size_t c = 1; c < kGiantCols; ++c) {
    giant.AddColumn("junk" + std::to_string(c));
  }
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(kGiantCols);
    cells.push_back("giv" + std::to_string(r % kCombos));
    for (size_t c = 1; c < kGiantCols; ++c) {
      cells.push_back("z" + std::to_string(c) + "u" +
                      std::to_string(r % 1009));
    }
    (void)giant.AppendRow(std::move(cells));
  }
  return giant;
}

Table MakeGroupQuery(size_t group) {
  Table query("q_g" + std::to_string(group));
  query.AddColumn("qa");
  query.AddColumn("qb");
  for (size_t j = 0; j < kCombos; ++j) {
    (void)query.AppendRow({"g" + std::to_string(group) + "a" +
                               std::to_string(j),
                           "g" + std::to_string(group) + "b" +
                               std::to_string(j)});
  }
  return query;
}

Table MakeGiantQuery() {
  Table query("q_giant");
  query.AddColumn("qk");
  for (size_t j = 0; j < kCombos; ++j) {
    (void)query.AppendRow({"giv" + std::to_string(j)});
  }
  return query;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.25;
  defaults.threads = 4;
  BenchArgs args = ParseBenchArgs(argc, argv, "memory_budget", defaults);
  if (args.threads == 0) args.threads = 4;

  // Floors keep the corpus-vs-budget geometry sound at tiny scales.
  const size_t num_groups = std::max<size_t>(
      30, static_cast<size_t>(120 * args.scale));
  const size_t giant_rows = std::max<size_t>(
      2400, static_cast<size_t>(12000 * args.scale));

  Corpus corpus;
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t m = 0; m < kTablesPerGroup; ++m) {
      corpus.AddTable(MakeHotTable(g, m));
    }
  }
  const TableId giant_id = corpus.AddTable(MakeGiantTable(giant_rows));
  const size_t num_tables = corpus.NumTables();

  const std::string corpus_path = "/tmp/mate_memory_budget.corpus";
  const std::string index_path = "/tmp/mate_memory_budget.index";
  {
    SessionOptions build;
    build.corpus = std::move(corpus);
    build.build_index = true;
    build.build_options.num_threads = args.threads;
    Session session = OpenOrDie(std::move(build));
    if (Status s = session.Save(corpus_path, index_path); !s.ok()) {
      Die("Save failed", s);
    }
  }

  // Query stream: two full cycles over the disjoint groups, with the giant
  // single-column probe once per cycle.
  std::vector<Table> query_tables;
  query_tables.reserve(num_groups + 1);
  for (size_t g = 0; g < num_groups; ++g) {
    query_tables.push_back(MakeGroupQuery(g));
  }
  query_tables.push_back(MakeGiantQuery());
  std::vector<size_t> stream;  // indices into query_tables
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (size_t g = 0; g < num_groups; ++g) stream.push_back(g);
    stream.push_back(num_groups);  // the giant query
  }

  // By hand, not OpenOrDie: the helper drains WaitCorpusResident, and a
  // fully materialized corpus is exactly what this bench must not start
  // from. Only the index load is drained (it isn't what's measured).
  const auto open_session = [&](uint64_t budget_bytes) {
    SessionOptions options;
    options.corpus_path = corpus_path;
    options.index_path = index_path;
    options.num_threads = args.threads;
    options.cache_bytes = 0;  // every query pays full cost
    options.corpus_budget_bytes = budget_bytes;
    auto session = Session::Open(std::move(options));
    if (!session.ok()) Die("Session::Open failed", session.status());
    if (Status ready = session->WaitUntilReady(); !ready.ok()) {
      Die("index load failed", ready);
    }
    return std::move(*session);
  };

  const auto run_stream = [&](Session& session,
                              std::vector<DiscoveryResult>* results) {
    Stopwatch wall;
    for (size_t qi : stream) {
      QuerySpec spec;
      spec.table = &query_tables[qi];
      spec.key_columns = qi == num_groups ? std::vector<ColumnId>{0}
                                          : std::vector<ColumnId>{0, 1};
      spec.options.k = args.k;
      auto result = session.Discover(spec);
      if (!result.ok()) Die("Discover failed", result.status());
      results->push_back(std::move(*result));
    }
    return wall.ElapsedSeconds();
  };

  // ---- unlimited reference -------------------------------------------
  Session unlimited = open_session(0);
  uint64_t total_cell_bytes = 0;
  for (TableId t = 0; t < unlimited.corpus().NumTables(); ++t) {
    total_cell_bytes += unlimited.corpus().table_cell_bytes(t);
  }
  std::vector<DiscoveryResult> reference;
  const double unlimited_wall = run_stream(unlimited, &reference);
  const uint64_t giant_total = unlimited.corpus().table_cell_bytes(giant_id);
  const ResidencyStats unlimited_res = unlimited.corpus_residency();

  // ---- budgeted run: corpus is exactly 4x the budget ------------------
  const uint64_t budget = total_cell_bytes / 4;
  Session budgeted = open_session(budget);
  std::vector<DiscoveryResult> governed;
  const double budgeted_wall = run_stream(budgeted, &governed);
  const ResidencyStats res = budgeted.corpus_residency();

  std::cout << "== Corpus residency budget (" << num_tables << " tables, "
            << FormatBytes(total_cell_bytes) << " of cells, budget "
            << FormatBytes(budget) << " = 1/4, " << stream.size()
            << " queries, k=" << args.k << ", threads=" << args.threads
            << ") ==\n\n";
  ReportTable table({"Mode", "Wall", "Cells parsed", "Peak resident",
                     "Evictions", "Giant resident"});
  const auto add_row = [&](const char* name, double wall,
                           const Session& session) {
    const ResidencyStats stats = session.corpus_residency();
    table.AddRow({name, FormatSeconds(wall),
                  FormatBytes(stats.bytes_materialized),
                  FormatBytes(stats.peak_resident_bytes),
                  std::to_string(stats.evictions),
                  FormatBytes(session.corpus().table_resident_bytes(giant_id)) +
                      "/" + FormatBytes(giant_total)});
  };
  add_row("unlimited", unlimited_wall, unlimited);
  add_row("budgeted", budgeted_wall, budgeted);
  table.Print(std::cout);

  // ---- hard gates -----------------------------------------------------
  if (!SameTopK(reference, governed)) {
    std::cerr << "ERROR: budgeted results diverged from the unlimited run\n";
    return 1;
  }
  std::cout << "Results are bit-identical to the unlimited run.\n";
  if (res.peak_resident_bytes > budget + budget / 10) {
    std::cerr << "ERROR: peak resident " << res.peak_resident_bytes
              << "B exceeded 1.1x the budget (" << budget << "B)\n";
    return 1;
  }
  if (unlimited_res.bytes_materialized != 0 || res.bytes_materialized != 0) {
    std::cerr << "ERROR: the query streams parsed cells (unlimited "
              << unlimited_res.bytes_materialized << "B, budgeted "
              << res.bytes_materialized << "B); verification must read "
              << "only the posting lists\n";
    return 1;
  }
  std::cout << "Neither query stream parsed a cell byte.\n";

  BenchJsonWriter json("memory_budget", args.threads);
  json.Add("unlimited", "wall", unlimited_wall, "s");
  json.Add("unlimited", "peak_resident",
           static_cast<double>(unlimited_res.peak_resident_bytes), "bytes");
  json.Add("unlimited", "bytes_materialized",
           static_cast<double>(unlimited_res.bytes_materialized), "bytes");
  json.Add("budgeted", "wall", budgeted_wall, "s");
  json.Add("budgeted", "budget", static_cast<double>(budget), "bytes");
  json.Add("budgeted", "peak_resident",
           static_cast<double>(res.peak_resident_bytes), "bytes");
  json.Add("budgeted", "evictions", static_cast<double>(res.evictions),
           "count");
  json.Add("budgeted", "rematerializations",
           static_cast<double>(res.rematerializations), "count");
  json.Add("budgeted", "bytes_materialized",
           static_cast<double>(res.bytes_materialized), "bytes");
  if (!json.WriteTo(args.json_path)) return 1;

  std::remove(corpus_path.c_str());
  std::remove(index_path.c_str());
  return 0;
}
