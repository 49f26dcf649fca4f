// The metric reports every workload shares: the end-to-end metrics of
// untraced runs and the per-layer metrics of traced runs.

#include <cstdio>
#include <fstream>
#include <map>

#include "workloads.h"

namespace perfbench {

CacheCounters CacheCounters::From(const std::string& metricsz) {
  CacheCounters c;
  c.agg_hits = PromSample(metricsz, "reptile_aggregate_cache_hits");
  c.agg_misses = PromSample(metricsz, "reptile_aggregate_cache_misses");
  c.model_hits = PromSample(metricsz, "reptile_model_cache_hits");
  c.model_misses = PromSample(metricsz, "reptile_model_cache_misses");
  c.model_fits = PromSample(metricsz, "reptile_model_cache_fits");
  c.connections = PromSample(metricsz, "reptile_transport_connections_accepted");
  return c;
}

CacheCounters CacheCounters::operator-(const CacheCounters& b) const {
  CacheCounters d;
  d.agg_hits = agg_hits - b.agg_hits;
  d.agg_misses = agg_misses - b.agg_misses;
  d.model_hits = model_hits - b.model_hits;
  d.model_misses = model_misses - b.model_misses;
  d.model_fits = model_fits - b.model_fits;
  d.connections = connections - b.connections;
  return d;
}

CacheCounters& CacheCounters::operator+=(const CacheCounters& o) {
  agg_hits += o.agg_hits;
  agg_misses += o.agg_misses;
  model_hits += o.model_hits;
  model_misses += o.model_misses;
  model_fits += o.model_fits;
  connections += o.connections;
  return *this;
}

double ClosedLoopLatenessP90Ms(const std::vector<Exchange>& exchanges) {
  std::vector<double> gaps;
  for (size_t i = 1; i < exchanges.size(); ++i) {
    gaps.push_back(static_cast<double>(exchanges[i].send_ns - exchanges[i - 1].done_ns) * 1e-6);
  }
  return gaps.empty() ? 0.0 : Percentile(gaps, 0.9);
}

std::string ExactNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

double Ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

std::vector<double> StageMs(const std::vector<Exchange>& xs, const std::string& stage) {
  std::vector<double> out;
  for (const Exchange& x : xs) out.push_back(TimingMs(x.timing, stage));
  return out;
}

}  // namespace

std::map<std::string, double> ReportLayers(const RunConfig& config, const TracedHttp& http,
                                          const LayerShape& shape, const SpanLog& spans,
                                          Report* report) {
  std::map<std::string, double> v;

  // HTTP-derived: Server-Timing stages of the timed recommends.
  const std::vector<Exchange>& rec = http.recommends;
  v["api.validate_ms"] = Median(StageMs(rec, "validate"));
  v["core.plan_ms"] = Median(StageMs(rec, "plan"));
  v["core.fit_ms"] = Median(StageMs(rec, "fit"));
  v["core.rank_ms"] = Median(StageMs(rec, "rank"));
  v["server.parse_ms"] = Median(StageMs(rec, "parse"));
  v["server.serialize_ms"] = Median(StageMs(rec, "serialize"));
  std::vector<double> overhead, iterations;
  for (const Exchange& x : rec) {
    overhead.push_back(TimingMs(x.timing, "total") - TimingMs(x.timing, "validate") -
                       TimingMs(x.timing, "plan") - TimingMs(x.timing, "fit") -
                       TimingMs(x.timing, "rank"));
  }
  v["server.overhead_ms"] = Median(overhead);
  std::vector<double> create_total;
  for (const Exchange& x : http.creates) create_total.push_back(TimingMs(x.timing, "total"));
  v["api.session_create_ms"] = Median(create_total);

  // Transport: the self time of each recommend's client span (client
  // latency minus the server span).
  SpanLog request_spans(uint64_t{1} << 48);
  AddExchangeSpans(rec, &request_spans);
  std::vector<double> transport;
  for (const Span& s : request_spans.spans()) {
    if (s.parent == 0) {
      transport.push_back(static_cast<double>(SelfTimeNs(s, request_spans.spans())) * 1e-6);
    }
  }
  v["net.transport_ms"] = Median(transport);
  v["net.connections"] = http.cache.connections;

  v["factor.agg_builds"] = http.cache.agg_misses;
  v["factor.agg_hit_ratio"] = Ratio(http.cache.agg_hits, http.cache.agg_misses);
  v["factor.model_fits"] = http.cache.model_fits;
  v["factor.model_hit_ratio"] = Ratio(http.cache.model_hits, http.cache.model_misses);
  v["parallel.queue_depth_max"] = http.queue_depth_max;
  v["obs.trace_overhead_pct"] = http.trace_overhead_pct;
  v["sim.lateness_p90_ms"] = http.lateness_p90_ms;

  for (const Exchange& x : rec) {
    if (x.em_iterations >= 0) iterations.push_back(x.em_iterations);
  }
  v["core.em_iterations"] = iterations.empty() ? 0.0 : Median(iterations);

  // In-process probes, in a child process.
  std::string encoded, error, probe_spans;
  if (!RunInChild([&] { return RunLayerProbes(shape); }, &encoded, &error) ||
      !DecodeLayerProbes(encoded, &v, &probe_spans)) {
    report->Invalidate("layer probes: " + (error.empty() ? "bad output" : error));
  }

  static const std::vector<std::pair<const char*, const char*>> kLayerUnits = {
      {"data.csv_parse_s", "s"},          {"data.group_by_ms", "ms"},
      {"api.prepare_ms", "ms"},           {"api.validate_ms", "ms"},
      {"api.recommend_self_ms", "ms"},    {"api.session_create_ms", "ms"},
      {"factor.ftree_build_ms", "ms"},    {"factor.group_moments_ms", "ms"},
      {"factor.agg_builds", "count"},     {"factor.agg_hit_ratio", "ratio"},
      {"factor.model_fits", "count"},     {"factor.model_hit_ratio", "ratio"},
      {"core.plan_ms", "ms"},             {"core.fit_ms", "ms"},
      {"core.rank_ms", "ms"},             {"core.em_iterations", "count"},
      {"model.em_fit_ms", "ms"},          {"model.em_iter_ms", "ms"},
      {"model.train_s", "s"},             {"fmatrix.gram_ms", "ms"},
      {"fmatrix.left_mult_ms", "ms"},     {"fmatrix.right_mult_ms", "ms"},
      {"parallel.queue_depth_max", "count"}, {"parallel.speedup_deep", "x"},
      {"version.append_ms", "ms"},        {"version.invalidated_entries", "count"},
      {"version.shared_entries", "count"}, {"server.parse_ms", "ms"},
      {"server.serialize_ms", "ms"},      {"server.overhead_ms", "ms"},
      {"net.transport_ms", "ms"},         {"net.connections", "count"},
      {"obs.trace_overhead_pct", "%"},    {"sim.lateness_p90_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayerUnits) {
    auto it = v.find(name);
    report->Metric(name, it == v.end() ? 0.0 : it->second, unit);
  }

  // Spans: the request spans of the whole traced run plus the probes'.
  std::ofstream out(config.trace_out, std::ios::trunc);
  out << spans.ToJsonLines() << probe_spans;
  report->Note("spans written to " + config.trace_out);
  return v;
}

void ReportEndToEnd(const std::vector<RoundSamples>& rounds, Report* report) {
  // Samples pool over the rounds; per-round scalars take the median.
  std::vector<double> setup, rps, rss, explore, recommend, append;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const RoundSamples& s = rounds[r];
    setup.push_back(s.setup_s);
    rps.push_back(s.saturation_rps);
    rss.push_back(s.peak_rss_mb);
    explore.insert(explore.end(), s.explore_s.begin(), s.explore_s.end());
    recommend.insert(recommend.end(), s.recommend_ms.begin(), s.recommend_ms.end());
    append.insert(append.end(), s.append_ms.begin(), s.append_ms.end());
    char buf[160];
    std::snprintf(buf, sizeof(buf), "round %zu: setup=%.6g s saturation=%.6g req/s rss=%.6g MB",
                  r, s.setup_s, s.saturation_rps, s.peak_rss_mb);
    report->Note(buf);
  }
  report->Note(DescribeSamples("walks (explore)", explore, "s"));
  report->Note(DescribeSamples("recommends", recommend, "ms"));
  report->Note(DescribeSamples("appends", append, "ms"));
  report->Metric("setup_s", Median(setup), "s");
  report->Metric("explore_s", Median(explore), "s");
  report->Metric("recommend_p50_ms", Percentile(recommend, 0.5), "ms");
  report->Metric("recommend_p90_ms", Percentile(recommend, 0.9), "ms");
  report->Metric("append_p50_ms", Median(append), "ms");
  report->Metric("saturation_rps", Median(rps), "req/s");
  report->Metric("peak_rss_mb", Median(rss), "MB");
}

void Prediction(Report* report, const std::string& claim, double share, double threshold) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " -> share %.3f (threshold %.2f): %s", share, threshold,
                share >= threshold ? "HELD" : "FAILED");
  report->Note("prediction: " + claim + buf);
}

}  // namespace perfbench
