// mate_perfbench — the repository's benchmark binary. One invocation runs
// one workload for one seed and prints, as its last stdout line, one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// by default, the per-layer metrics with --trace 1.
//
//   mate_perfbench --workload nary_join|wt_served|od_budget --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR]
//                  [--pinned FILE] [--git-sha SHA] [--src-digest HEX]
//
// perfbench/run.py builds this binary from source and forwards its flags.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "mate_perfbench: " << why
            << "\nusage: mate_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--pinned FILE] "
               "[--git-sha SHA] [--src-digest HEX]\n";
  std::exit(2);
}

perfbench::RunArgs ParseArgs(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--pinned") {
      args.pinned_path = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    Usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = ParseArgs(argc, argv);
  perfbench::RunReport report;
  perfbench::RunWorkload(args, &report);
  perfbench::PrintMetricTable(
      report, args.workload + " seed=" + std::to_string(args.seed) +
                  (args.trace ? " per-layer (traced run)" : " end-to-end"));
  std::cout << perfbench::ResultJson(report) << std::endl;
  return 0;
}
