// Open-loop replay of a workload schedule (sim/workload.h) against a live
// reptile_serve: every operation becomes ELIGIBLE at its scheduled virtual
// instant whether or not earlier responses have arrived, and its latency is
// measured from that instant — so a server that falls behind accumulates
// client-side queueing in its percentiles instead of silently slowing the
// generator down (the closed-loop coordinated-omission trap).
//
// Ordering: operations of ONE simulated session execute in schedule order,
// one in flight at a time (a session's commit must land before its next
// recommend, and its create must reveal the session id). Across sessions
// everything is concurrent, bounded only by the worker count.
//
// Validation: each admitted response is compared byte-for-byte against the
// oracle's golden (sim/oracle.h). 429 / 503 / client-timeout outcomes are
// counted separately, never as mismatches; a session whose state-mutating
// op (create/commit) was refused stops being byte-validated — its server
// state has diverged from the oracle's replica — but keeps sending load.

#ifndef REPTILE_SIM_OPEN_LOOP_RUNNER_H_
#define REPTILE_SIM_OPEN_LOOP_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/oracle.h"
#include "sim/workload.h"

namespace reptile {

struct RunnerOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int workers = 8;        // max concurrent in-flight requests (one client each)
  int timeout_ms = 5000;  // per-socket-op client deadline (HttpClient)
  // false (default): one connection per request. true: each worker keeps one
  // connection alive for the whole run, as a long-lived client would; the
  // reactor front end holds idle keep-alive connections as state, not
  // threads, so any number of workers is fine.
  bool keep_alive = false;
};

/// Outcome counters and latency percentiles of one scenario replay.
struct ScenarioReport {
  std::string scenario;
  std::string schedule_digest;
  uint64_t seed = 0;
  int64_t scheduled_ops = 0;
  int64_t sent = 0;       // requests that went on the wire
  int64_t ok = 0;         // admitted, status matched, body matched (if checked)
  int64_t mismatches = 0; // admitted but wrong status or wrong bytes
  int64_t failures = 0;   // transport errors other than timeout
  int64_t rate_limited_429 = 0;
  int64_t shed_503 = 0;
  int64_t timeouts = 0;   // client deadline (kDeadlineExceeded)
  int64_t skipped = 0;    // chain ops never sent (their session create failed)
  double wall_seconds = 0.0;
  double rps = 0.0;       // sent / wall_seconds
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0;

  /// One JSON object (for BENCH_workload.json).
  std::string ToJson() const;
};

/// Uploads the oracle's dataset, replays `schedule` open-loop, deletes the
/// dataset, and returns the report. `expected` must be index-aligned with
/// `schedule` (from WorkloadOracle::ExpectedResponses).
ScenarioReport RunOpenLoop(const RunnerOptions& options, const WorkloadOracle& oracle,
                           const std::vector<ScheduledOp>& schedule,
                           const std::vector<ExpectedResponse>& expected);

}  // namespace reptile

#endif  // REPTILE_SIM_OPEN_LOOP_RUNNER_H_
