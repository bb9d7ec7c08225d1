// perfbench_workload: one benchmark run.
//
//   perfbench_workload --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--rate <steady requests/s of service_mix_300>]
//
// Prints digests and details, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero when any output check fails.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "support/parallel.h"
#include "workloads.h"

namespace {

bool parse(int argc, char** argv, perfbench::RunOptions& options) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      continue;
    }
    if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
      continue;
    }
    if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--rate") {
      options.steady_rate = std::strtod(value.c_str(), &end);
    } else {
      return false;
    }
    if (value.empty() || *end != '\0') return false;
  }
  return !options.workload.empty() && options.seconds > 0.0 &&
         options.steady_rate >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench_workload --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  // Every tier plans on one thread; the daemon's parallelism is across
  // requests (its worker count), not within one.
  bc::support::set_thread_count(1);

  perfbench::Report report(options);
  try {
    using bc::tour::Algorithm;
    if (options.workload == "bc_opt_euclid_1k") {
      perfbench::run_planning({"bc_opt_euclid_1k", 1000, Algorithm::kBcOpt,
                               false},
                              report);
    } else if (options.workload == "shard_euclid_10k") {
      perfbench::run_planning({"shard_euclid_10k", 10000,
                               Algorithm::kBcSharded, false},
                              report);
    } else if (options.workload == "bc_opt_obstacle_200") {
      perfbench::run_planning({"bc_opt_obstacle_200", 200, Algorithm::kBcOpt,
                               true},
                              report);
    } else if (options.workload == "service_mix_300") {
      perfbench::run_service(report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  return report.finish();
}
