// The benchmark workloads, and what they share: the end-to-end and
// per-layer metrics every workload reports under the same names.
//
// A run is kRounds rounds; each launches a fresh reptile_serve, sets it up
// (timed) and measures its share of --seconds. End-to-end metrics (untraced
// runs; every workload reports all seven):
//   setup_s           median over rounds of: launch reptile_serve -> start of
//                     the measured phases (upload and warm-up included)
//   explore_s         median wall time of one analyst walk (session create
//                     -> last operation of the walk), over the run's walks
//   recommend_p50_ms  exact percentiles of POST /v1/recommend latency over
//   recommend_p90_ms  the run's timed recommends
//   append_p50_ms     median latency of POST /v1/datasets/{name}/rows
//   saturation_rps    requests completed per second while kClients
//                     closed-loop clients issue the workload's mix for a fixed
//                     count; median over rounds
//   peak_rss_mb       the server's VmHWM at the end of a round; median

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace perfbench {

constexpr int kRounds = 3;
/// Closed-loop clients of the saturation phases. With the main thread that
/// makes nproc (4) client threads at most, and 3 connections.
constexpr int kClients = 3;

void RunDrillCross(const RunConfig& config, Report* report);
void RunScanPanel(const RunConfig& config, Report* report);

/// The end-to-end samples of one round.
struct RoundSamples {
  double setup_s = 0.0;
  std::vector<double> explore_s;     // one per walk
  std::vector<double> recommend_ms;  // the round's recommend sample
  std::vector<double> append_ms;
  double saturation_rps = 0.0;
  double peak_rss_mb = 0.0;
};

/// Prints per-round notes and reports the seven end-to-end metrics.
void ReportEndToEnd(const std::vector<RoundSamples>& rounds, Report* report);

/// Server-side cache counters read from one /metricsz scrape.
struct CacheCounters {
  double agg_hits = 0, agg_misses = 0, model_hits = 0, model_misses = 0, model_fits = 0;
  double connections = 0;

  static CacheCounters From(const std::string& metricsz);
  CacheCounters operator-(const CacheCounters& before) const;
  CacheCounters& operator+=(const CacheCounters& other);
};

/// What the traced run measured over HTTP, next to the in-process probes.
struct TracedHttp {
  std::vector<Exchange> recommends;  // the workload's timed recommend sample
  std::vector<Exchange> creates;     // POST /v1/sessions
  CacheCounters cache;               // deltas over the timed phase
  double queue_depth_max = 0;
  double trace_overhead_pct = 0;
  double lateness_p90_ms = 0;
};

/// Reports every per-layer metric: the HTTP-derived ones from `http`, the
/// in-process ones by running the layer probes on `shape` in a child
/// process. Writes `spans` (the traced run's request spans) and the probes'
/// spans to the trace file, and returns every value by name.
std::map<std::string, double> ReportLayers(const RunConfig& config, const TracedHttp& http,
                                          const LayerShape& shape, const SpanLog& spans,
                                          Report* report);

/// Prints one expected result of the traced run and whether it held.
void Prediction(Report* report, const std::string& claim, double share, double threshold);

/// p90 of the gaps between one exchange's completion and the next one's
/// send, over a closed-loop client's exchanges: how late the generator ran.
double ClosedLoopLatenessP90Ms(const std::vector<Exchange>& exchanges);

/// Renders a number with %.17g (CSV measures round-trip exactly).
std::string ExactNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
