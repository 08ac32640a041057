// The benchmark's three closed-loop workloads (see perfbench/README.md):
//
//   nary_join  in-process Session::Discover over the key-size lake,
//              |Q| in {2,3,4}, one caller, result cache off;
//   wt_served  an in-process MateServer driven only through MateClient by
//              three tenant connections over the web-table lake, result
//              cache on, about a fifth of each tenant's requests repeats;
//   od_budget  the open-data lake saved, reopened lazily from disk under a
//              residency budget of a quarter of its cell bytes, one caller,
//              result cache off.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames();

/// Runs one workload per `args` and fills `report` with its end-to-end
/// metrics (args.trace == false) or per-layer metrics (args.trace == true).
/// When the run cannot be carried out at all (a set-up step fails), it
/// says why on stderr and exits the process with status 1, printing no
/// result.
void RunWorkload(const RunArgs& args, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
