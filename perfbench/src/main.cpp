// perfbench_driver — one benchmark run against a freshly launched
// reptile_serve. perfbench/run.py builds this binary and the server from the
// checkout and invokes it as
//
//   perfbench_driver --workload drill_cross|scan_panel
//       --seed N --seconds S --trace 0|1 --server PATH [--trace-out FILE]
//
// It prints one line per metric (name, value, unit), "# " context lines, and
// as its last line the JSON result {"correct","attempted","failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. The exit code is 0 only when every operation succeeded and
// every response matched its oracle.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload drill_cross|scan_panel "
               "--seed N --seconds S --trace 0|1 --server PATH [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.trace_out = "perfbench-trace.jsonl";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--server") {
      config.server_path = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage();
    }
  }
  if (config.server_path.empty() || config.seconds <= 0) Usage();

  perfbench::Client::UseLiveTimings(config.trace);
  perfbench::Report report;
  report.Note("workload=" + config.workload + " seed=" + std::to_string(config.seed) +
              " seconds=" + perfbench::ExactNumber(config.seconds) +
              " trace=" + (config.trace ? "1" : "0"));
  if (config.workload == "drill_cross") {
    perfbench::RunDrillCross(config, &report);
  } else if (config.workload == "scan_panel") {
    perfbench::RunScanPanel(config, &report);
  } else {
    Usage();
  }
  return report.Finish();
}
