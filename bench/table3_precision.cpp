// E4 — Table 3: row-filter precision (TP / (TP+FP) over rows reaching
// verification), mean ± std across the queries of each set, for each hash
// function at 128 and 512 bits.
//
// Paper shape to hold: Xash achieves the highest average precision at both
// sizes (0.90 ±0.21 at 512 in the paper), precision grows with hash size,
// BF/HT can edge Xash in a few OD cells, digests sit near the bottom.
//
// The semi-join (DiscoveryOptions::use_semi_join) is off: it keeps the
// super-key filter from seeing combos whose rarest value a table lacks,
// which raises every hash's precision, and this table compares the hashes.
// Queries fetch by §6.1's cardinality rule
// (InitColumnStrategy::kMinCardinality), so the rows filtered are the
// paper's.

#include <iostream>

#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

struct HashConfig {
  HashFamily family;
  size_t bits;
  std::string Label() const {
    return std::string(HashFamilyName(family)) + " " + std::to_string(bits);
  }
};

const std::vector<HashConfig>& Configs() {
  // Table 3's columns: MD5 and City at 128; SimHash/HT/BF/LHBF/Xash at
  // 128 and 512.
  static const std::vector<HashConfig> kConfigs = {
      {HashFamily::kMd5, 128},
      {HashFamily::kCity, 128},
      {HashFamily::kSimHash, 128},
      {HashFamily::kSimHash, 512},
      {HashFamily::kHashTable, 128},
      {HashFamily::kHashTable, 512},
      {HashFamily::kBloom, 128},
      {HashFamily::kBloom, 512},
      {HashFamily::kLessHashingBloom, 128},
      {HashFamily::kLessHashingBloom, 512},
      {HashFamily::kXash, 128},
      {HashFamily::kXash, 512}};
  return kConfigs;
}

struct Cell {
  double mean = 0.0;
  double std_dev = 0.0;
  size_t queries = 0;
};

void RunWorkload(Workload workload, int k,
                 std::vector<std::vector<std::string>>* rows,
                 std::vector<Cell>* averages) {
  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.cache_bytes = 0;
  Session session = OpenOrDie(std::move(session_options));

  size_t base = rows->size();
  for (const auto& [name, queries] : workload.query_sets) {
    (void)queries;
    rows->push_back({name});
  }
  for (size_t c = 0; c < Configs().size(); ++c) {
    const HashConfig& config = Configs()[c];
    if (auto status = session.ResetHash(config.family, config.bits);
        !status.ok()) {
      std::cerr << "ResetHash failed: " << status.ToString() << "\n";
      std::exit(1);
    }
    for (size_t s = 0; s < workload.query_sets.size(); ++s) {
      DiscoveryOptions mate_options;
      mate_options.k = k;
      mate_options.init_strategy = InitColumnStrategy::kMinCardinality;
      mate_options.use_semi_join = false;
      QuerySetMetrics metrics = RunOrDie(RunMateWithOptions(
          session, workload.query_sets[s].second, mate_options,
          config.Label()));
      (*rows)[base + s].push_back(
          FormatMeanStd(metrics.avg_precision, metrics.std_precision));
      Cell& avg = (*averages)[c];
      avg.mean += metrics.avg_precision;
      avg.std_dev += metrics.std_precision;
      avg.queries += 1;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.15;
  defaults.queries = 3;
  BenchArgs args = ParseBenchArgs(argc, argv, "table3_precision", defaults);
  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = args.queries;
  config.seed = args.seed;

  std::cout << "== E4 / Table 3: row-filter precision per hash function "
               "(mean ± std across queries; k="
            << args.k << ", scale=" << args.scale << ") ==\n\n";

  std::vector<std::string> headers = {"Dataset"};
  for (const HashConfig& c : Configs()) headers.push_back(c.Label());
  std::vector<std::vector<std::string>> rows;
  std::vector<Cell> averages(Configs().size());

  RunWorkload(MakeWebTablesWorkload(config), args.k, &rows, &averages);
  RunWorkload(MakeOpenDataWorkload(config), args.k, &rows, &averages);
  RunWorkload(MakeKaggleWorkload(config), args.k, &rows, &averages);
  RunWorkload(MakeSchoolWorkload(config), args.k, &rows, &averages);

  ReportTable table(headers);
  for (auto& row : rows) table.AddRow(std::move(row));
  std::vector<std::string> avg_row = {"Average"};
  for (const Cell& cell : averages) {
    avg_row.push_back(FormatMeanStd(
        cell.queries ? cell.mean / static_cast<double>(cell.queries) : 0.0,
        cell.queries ? cell.std_dev / static_cast<double>(cell.queries)
                     : 0.0));
  }
  table.AddRow(std::move(avg_row));
  table.Print(std::cout);
  std::cout << "\nShape check (paper): Xash highest average precision at "
               "both sizes; 512 >= 128 for each family; digests lowest.\n";
  return 0;
}
