// reptile_loadgen — deterministic open-loop workload driver for
// reptile_serve.
//
//   reptile_loadgen --port 8080                        # steady + burst
//   reptile_loadgen --port 8080 --scenario steady
//   reptile_loadgen --scenario burst --seed 7 --dump-schedule /tmp/sched
//
// The generator builds a virtual-time schedule (sim/workload.h) that is a
// pure function of (scenario, seed), precomputes every expected response
// byte (sim/oracle.h), then replays the schedule open-loop against a live
// server (sim/open_loop_runner.h): requests fire at their scheduled
// instants whether or not earlier ones completed, and latency is measured
// from the scheduled instant, so an overloaded server shows up in the
// percentiles instead of slowing the generator down.
//
// Flags:
//   --port N            server port (required unless --dump-schedule)
//   --host H            server host (default 127.0.0.1)
//   --scenario S        steady | burst | churn | both (default both; churn —
//                       appends mid-run with analysts pinned to @v1 — is
//                       opt-in only)
//   --seed N            schedule seed (default 42); same seed, same bytes
//   --duration-s S      override the scenario's arrival window (default 0 =
//                       scenario default)
//   --workers N         max concurrent in-flight requests (default 8)
//   --timeout-ms N      per-socket-op client deadline (default 5000)
//   --keep-alive        one persistent connection per worker instead of one
//                       connection per request (an idle keep-alive
//                       connection costs the server a few KB, not a thread)
//   --out PATH          report file (default BENCH_workload.json)
//   --dump-schedule P   write the schedule text to P (single scenario) or
//                       P.<scenario> (both) and exit without needing a
//                       server — scripts/check.sh diffs two dumps to prove
//                       seed determinism
//   --expect-overload   assert the admission layer pushed back: requires
//                       429s AND 503 sheds > 0, and tolerates failures /
//                       timeouts (use with the burst scenario against a
//                       server running --rate-limit-rps/--queue-deadline-ms)
//
// Exit status: 0 when every selected scenario validated (and, with
// --expect-overload, pushback was observed); 1 otherwise. Steady runs
// against an unthrottled server must end with failures=0 mismatches=0 —
// scripts/check.sh greps the report for exactly that.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/open_loop_runner.h"
#include "sim/oracle.h"
#include "sim/workload.h"

namespace reptile {
namespace {

struct Args {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string scenario = "both";
  uint64_t seed = 42;
  double duration_s = 0.0;
  int workers = 8;
  int timeout_ms = 5000;
  bool keep_alive = false;
  std::string out = "BENCH_workload.json";
  std::string dump_schedule;
  bool expect_overload = false;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host H] [--scenario steady|burst|churn|both] "
               "[--seed N] [--duration-s S] [--workers N] [--timeout-ms N] "
               "[--keep-alive] [--out PATH] [--dump-schedule PATH] "
               "[--expect-overload]\n",
               argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  auto value_of = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", argv[i]);
      Usage(argv[0]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--port") {
      args.port = std::atoi(value_of(i).c_str());
    } else if (flag == "--host") {
      args.host = value_of(i);
    } else if (flag == "--scenario") {
      args.scenario = value_of(i);
      if (args.scenario != "steady" && args.scenario != "burst" &&
          args.scenario != "churn" && args.scenario != "both") {
        std::fprintf(stderr,
                     "--scenario wants steady|burst|churn|both, got '%s'\n",
                     args.scenario.c_str());
        Usage(argv[0]);
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value_of(i).c_str(), nullptr, 10);
    } else if (flag == "--duration-s") {
      args.duration_s = std::atof(value_of(i).c_str());
    } else if (flag == "--workers") {
      args.workers = std::atoi(value_of(i).c_str());
    } else if (flag == "--timeout-ms") {
      args.timeout_ms = std::atoi(value_of(i).c_str());
    } else if (flag == "--keep-alive") {
      args.keep_alive = true;
    } else if (flag == "--out") {
      args.out = value_of(i);
    } else if (flag == "--dump-schedule") {
      args.dump_schedule = value_of(i);
    } else if (flag == "--expect-overload") {
      args.expect_overload = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      Usage(argv[0]);
    }
  }
  if (args.dump_schedule.empty() && args.port <= 0) {
    std::fprintf(stderr, "--port is required (got %d)\n", args.port);
    Usage(argv[0]);
  }
  return args;
}

std::vector<ScenarioSpec> SelectScenarios(const Args& args) {
  std::vector<ScenarioSpec> specs;
  if (args.scenario == "steady" || args.scenario == "both") {
    specs.push_back(SteadyScenario());
  }
  if (args.scenario == "burst" || args.scenario == "both") {
    specs.push_back(BurstScenario());
  }
  // churn is opt-in only ("both" predates it, and its steady+burst contract
  // is what check.sh's existing stages assert): analysts pinned to @v1 while
  // a feeder appends v2 and v3 mid-run, every byte still oracle-validated.
  if (args.scenario == "churn") {
    specs.push_back(ChurnScenario());
  }
  for (ScenarioSpec& spec : specs) {
    if (args.duration_s > 0.0) spec.arrival_window_seconds = args.duration_s;
  }
  return specs;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::vector<ScenarioSpec> specs = SelectScenarios(args);

  // Dump mode needs no server: emit the deterministic schedule text and
  // stop. check.sh runs this twice and byte-diffs the outputs.
  if (!args.dump_schedule.empty()) {
    for (const ScenarioSpec& spec : specs) {
      std::vector<ScheduledOp> schedule = BuildSchedule(spec, args.seed);
      std::string path = specs.size() == 1 ? args.dump_schedule
                                           : args.dump_schedule + "." + spec.name;
      if (!WriteFile(path, DumpSchedule(spec, args.seed, schedule))) return 1;
      std::printf("wrote %s (%zu ops, digest %s)\n", path.c_str(), schedule.size(),
                  ScheduleDigest(spec, args.seed, schedule).c_str());
    }
    return 0;
  }

  RunnerOptions runner;
  runner.host = args.host;
  runner.port = args.port;
  runner.workers = args.workers;
  runner.timeout_ms = args.timeout_ms;
  runner.keep_alive = args.keep_alive;

  bool failed = false;
  int64_t total_429 = 0, total_shed = 0;
  std::string report_json = "{\"bench\":\"workload\",\"seed\":" +
                            std::to_string(args.seed) + ",\"scenarios\":[";
  for (size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    std::vector<ScheduledOp> schedule = BuildSchedule(spec, args.seed);
    // Per-scenario dataset names so back-to-back scenarios never collide in
    // the server's registry.
    SimDatasetSpec dataset;
    dataset.name = "sim_" + spec.name;
    dataset.panel = spec.panel;
    WorkloadOracle oracle(dataset);
    std::vector<ExpectedResponse> expected = oracle.ExpectedResponses(schedule);

    std::printf("scenario %s: %zu ops, digest %s\n", spec.name.c_str(),
                schedule.size(), ScheduleDigest(spec, args.seed, schedule).c_str());
    std::fflush(stdout);
    ScenarioReport report = RunOpenLoop(runner, oracle, schedule, expected);
    report.scenario = spec.name;
    report.seed = args.seed;
    report.schedule_digest = ScheduleDigest(spec, args.seed, schedule);

    std::printf("%s\n", report.ToJson().c_str());
    std::fflush(stdout);
    if (i > 0) report_json += ',';
    report_json += report.ToJson();
    total_429 += report.rate_limited_429;
    total_shed += report.shed_503;

    if (report.mismatches > 0) {
      std::fprintf(stderr, "scenario %s: %lld responses mismatched the oracle\n",
                   spec.name.c_str(), static_cast<long long>(report.mismatches));
      failed = true;
    }
    if (!args.expect_overload &&
        (report.failures > 0 || report.timeouts > 0 || report.skipped > 0)) {
      std::fprintf(stderr,
                   "scenario %s: failures=%lld timeouts=%lld skipped=%lld "
                   "(expected clean completion)\n",
                   spec.name.c_str(), static_cast<long long>(report.failures),
                   static_cast<long long>(report.timeouts),
                   static_cast<long long>(report.skipped));
      failed = true;
    }
  }
  report_json += "]}";

  if (args.expect_overload && (total_429 == 0 || total_shed == 0)) {
    std::fprintf(stderr,
                 "--expect-overload: wanted both pushback paths but saw "
                 "429s=%lld sheds=%lld\n",
                 static_cast<long long>(total_429),
                 static_cast<long long>(total_shed));
    failed = true;
  }

  if (!WriteFile(args.out, report_json + "\n")) return 1;
  std::printf("wrote %s\n", args.out.c_str());
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace reptile

int main(int argc, char** argv) { return reptile::Main(argc, argv); }
