// E5 — Figure 5: precision contribution of each XASH component on the
// WT (100) query set: SCR (no filter), length-only, rare-characters-only,
// characters+location, characters+length+location, full Xash at 128 and
// 512 bits, and the Ideal system (a filter that passes only true joinable
// rows, precision 1 by definition).
//
// Paper shape to hold: each added component raises precision;
// characters+location filters more than length alone; rotation (the delta
// between char+len+loc and Xash) removes ~20% of the remaining FPs.
//
// The semi-join (DiscoveryOptions::use_semi_join) is off: it keeps the
// super-key filter from seeing combos whose rarest value a table lacks,
// which raises precision on its own, and this figure measures XASH.
// Every row, SCR's included, fetches by §6.1's cardinality rule
// (InitColumnStrategy::kMinCardinality), as the paper's runs did.

#include <iostream>
#include <memory>

#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "hash/xash.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

struct AblationConfig {
  std::string label;
  size_t bits;
  bool use_length;
  bool use_chars;
  bool use_location;
  bool use_rotation;
};

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.25;
  defaults.queries = 5;
  BenchArgs args = ParseBenchArgs(argc, argv, "fig5_ablation", defaults);
  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = args.queries;
  config.seed = args.seed;

  std::cout << "== E5 / Figure 5: Xash component ablation on WT (100) "
               "(precision of the row filter; k="
            << args.k << ", scale=" << args.scale << ") ==\n\n";

  Workload workload = MakeWebTablesWorkload(config);
  // Figure 5 uses the WT (100) set only.
  const auto& queries = workload.query_sets[1].second;

  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.cache_bytes = 0;  // precision bench, no reuse to exploit
  Session session = OpenOrDie(std::move(session_options));
  auto frequencies = std::make_unique<CharFrequencyTable>(
      CharFrequencyTable::FromCounts(session.corpus_stats().char_counts));

  ReportTable table({"Configuration", "Precision (mean ± std)", "FP rows",
                     "TP rows"});

  // SCR: no row filter at all — every fetched row reaches verification.
  {
    DiscoveryOptions scr;
    scr.k = args.k;
    scr.init_strategy = InitColumnStrategy::kMinCardinality;
    scr.use_row_filter = false;
    QuerySetMetrics metrics =
        RunOrDie(RunMateWithOptions(session, queries, scr, "SCR"));
    table.AddRow({"SCR (no filter)",
                  FormatMeanStd(metrics.avg_precision, metrics.std_precision),
                  std::to_string(metrics.fp_rows),
                  std::to_string(metrics.tp_rows)});
  }

  const AblationConfig configs[] = {
      {"Length only", 128, true, false, false, false},
      {"Rare characters only", 128, false, true, false, false},
      {"Char. + location", 128, false, true, true, false},
      {"Char. + length + location", 128, true, true, true, false},
      {"Xash (128 bit)", 128, true, true, true, true},
      {"Xash (512 bit)", 512, true, true, true, true},
  };
  double char_len_loc_fp = -1.0;
  double xash128_fp = -1.0;
  for (const AblationConfig& ablation : configs) {
    XashOptions xopts;
    xopts.hash_bits = ablation.bits;
    xopts.corpus_unique_values = session.corpus_stats().num_unique_values;
    xopts.use_length = ablation.use_length;
    xopts.use_chars = ablation.use_chars;
    xopts.use_location = ablation.use_location;
    xopts.use_rotation = ablation.use_rotation;
    xopts.frequencies = frequencies.get();
    if (auto status = session.ResetHash(HashFamily::kXash,
                                        std::make_unique<Xash>(xopts));
        !status.ok()) {
      std::cerr << "ResetHash failed: " << status.ToString() << "\n";
      return 1;
    }
    DiscoveryOptions mate_options;
    mate_options.k = args.k;
    mate_options.init_strategy = InitColumnStrategy::kMinCardinality;
    mate_options.use_semi_join = false;
    QuerySetMetrics metrics = RunOrDie(
        RunMateWithOptions(session, queries, mate_options, ablation.label));
    if (ablation.label == "Char. + length + location") {
      char_len_loc_fp = static_cast<double>(metrics.fp_rows);
    }
    if (ablation.label == "Xash (128 bit)") {
      xash128_fp = static_cast<double>(metrics.fp_rows);
    }
    table.AddRow({ablation.label,
                  FormatMeanStd(metrics.avg_precision, metrics.std_precision),
                  std::to_string(metrics.fp_rows),
                  std::to_string(metrics.tp_rows)});
  }
  table.AddRow({"Ideal system", FormatMeanStd(1.0, 0.0), "0", "-"});
  table.Print(std::cout);

  if (char_len_loc_fp > 0) {
    std::cout << "\nRotation removed "
              << FormatDouble(
                     100.0 * (char_len_loc_fp - xash128_fp) / char_len_loc_fp,
                     1)
              << "% of the FPs remaining after char+length+location "
                 "(paper: ~20%).\n";
  }
  std::cout << "Shape check (paper): precision climbs with each component; "
               "char-based features beat length alone.\n";
  return 0;
}
