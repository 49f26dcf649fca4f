// Tests for the observability primitives (src/obs/): histogram determinism
// under concurrency, the Prometheus text golden (pinning the exact wire
// bytes /metricsz emits), trace ids and Server-Timing rendering, the debug
// request ring, the JSON-lines logger, and build identity.
//
// The concurrency tests are the TSan targets named by scripts/check.sh's
// sanitizer stage (ctest -R 'Obs...').

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "datagen/panel_gen.h"
#include "gtest/gtest.h"
#include "obs/build_info.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request_ring.h"
#include "obs/trace.h"
#include "reptile/reptile.h"
#include "server/service.h"

namespace reptile {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(ObsHistogram, BucketIndexBracketsTheLadder) {
  // `seconds <= bound[i]` semantics: exact bounds land in their own bucket.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e-7), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e-6), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.1e-6), 1);
  EXPECT_EQ(Histogram::BucketIndex(0.0015), 10);  // -> le="0.002"
  EXPECT_EQ(Histogram::BucketIndex(100.0), Histogram::kNumBounds - 1);
  EXPECT_EQ(Histogram::BucketIndex(100.1), Histogram::kNumBounds);  // overflow
  // Bounds and their label spellings stay index-aligned.
  ASSERT_EQ(Histogram::BucketBounds().size(), Histogram::BucketLabels().size());
}

TEST(ObsHistogram, CountSumAndBucketsAreExact) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum_seconds(), 0.0);
  h.Observe(0.0015);
  h.Observe(0.003);
  h.Observe(0.25);
  h.Observe(200.0);  // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.BucketCount(10), 1);
  EXPECT_EQ(h.BucketCount(11), 1);
  EXPECT_EQ(h.BucketCount(17), 1);
  EXPECT_EQ(h.BucketCount(Histogram::kNumBounds), 1);
  // Sum accumulates in integer nanoseconds: exact, not approximately-equal.
  // Compare against the same nanos -> seconds computation the getter uses so
  // the equality is bitwise, independent of decimal-literal rounding.
  EXPECT_EQ(h.sum_seconds(), static_cast<double>(INT64_C(200254500000)) * 1e-9);
}

TEST(ObsHistogram, QuantileReturnsBucketUpperBounds) {
  Histogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);

  Histogram one;
  one.Observe(0.003);  // bucket le="0.005"
  EXPECT_EQ(one.Quantile(0.5), 0.005);
  EXPECT_EQ(one.Quantile(0.99), 0.005);

  Histogram overflow;
  overflow.Observe(500.0);
  EXPECT_EQ(overflow.Quantile(0.99), 100.0);  // clamped to the last finite bound

  Histogram spread;
  for (int i = 0; i < 90; ++i) spread.Observe(0.0008);  // le="0.001"
  for (int i = 0; i < 10; ++i) spread.Observe(0.04);    // le="0.05"
  EXPECT_EQ(spread.Quantile(0.50), 0.001);
  EXPECT_EQ(spread.Quantile(0.90), 0.001);  // rank 90 still in the first bucket
  EXPECT_EQ(spread.Quantile(0.99), 0.05);
}

// The determinism anchor: N threads recording a fixed multiset of values
// produce a snapshot identical to a sequential replay — same count, same
// per-bucket counts, and the same sum to the nanosecond. Run under TSan by
// scripts/check.sh.
TEST(ObsHistogram, ConcurrentObservationsMatchSequentialReplay) {
  std::vector<double> values;
  values.reserve(8000);
  for (int i = 0; i < 8000; ++i) {
    // Deterministic spread over ~5 decades, including overflow outliers.
    values.push_back(1e-6 * static_cast<double>((i % 997) * (i % 97) + 1));
  }
  values[123] = 250.0;  // overflow
  values[456] = 101.0;  // overflow

  Histogram concurrent;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, &values, t] {
      for (size_t i = static_cast<size_t>(t); i < values.size(); i += kThreads) {
        concurrent.Observe(values[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  Histogram sequential;
  for (double v : values) sequential.Observe(v);

  EXPECT_EQ(concurrent.count(), sequential.count());
  EXPECT_EQ(concurrent.count(), static_cast<int64_t>(values.size()));
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(concurrent.BucketCount(i), sequential.BucketCount(i)) << "bucket " << i;
  }
  EXPECT_EQ(concurrent.sum_seconds(), sequential.sum_seconds());
}

// Counters and gauges under contention: totals are exact.
TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  Counter counter;
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        gauge.Add(2);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(gauge.value(), 2 * kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(ObsMetricsRegistry, GetIsGetOrCreate) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total", "x", {{"code", "2xx"}});
  Counter* b = registry.GetCounter("x_total", "x", {{"code", "2xx"}});
  Counter* c = registry.GetCounter("x_total", "x", {{"code", "5xx"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  Histogram* h1 = registry.GetHistogram("y_seconds", "y");
  Histogram* h2 = registry.GetHistogram("y_seconds", "y");
  EXPECT_EQ(h1, h2);
}

// Pins the /metricsz wire format byte-for-byte: HELP/TYPE preamble, family
// ordering (sorted by name), label rendering, the exact `le` spellings of
// the 1-2-5 ladder, cumulative buckets, and the %.9g `_sum`.
TEST(ObsMetricsRegistry, PrometheusTextGolden) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("test_requests_total", "requests served",
                                          {{"code", "2xx"}});
  requests->Increment(3);
  Gauge* depth = registry.GetGauge("test_queue_depth", "queue depth");
  depth->Set(7);
  registry.RegisterCallback("test_cb_items", "sampled at render time", MetricType::kGauge,
                            [] { return int64_t{42}; });
  registry.RegisterCallback("test_cb_total", "a counter kept elsewhere", MetricType::kCounter,
                            [] { return int64_t{5}; });
  registry.RegisterCallbackFamily("test_cb_per_name", "one sample per name",
                                  MetricType::kGauge, "name", [] {
                                    return LabelledSamples{{"b", 2}, {"a\"q", 1}};
                                  });
  Histogram* latency = registry.GetHistogram("test_latency_seconds", "request latency");
  latency->Observe(0.0015);  // le="0.002"
  latency->Observe(0.003);   // le="0.005"
  latency->Observe(0.25);    // le="0.5"
  latency->Observe(200.0);   // +Inf

  // An independent copy of the ladder's spellings: if the renderer (or the
  // ladder) drifts, this test — not a scrape consumer — catches it.
  const char* kLe[25] = {"1e-06",  "2e-06",  "5e-06", "1e-05", "2e-05", "5e-05",
                         "0.0001", "0.0002", "0.0005", "0.001", "0.002", "0.005",
                         "0.01",   "0.02",   "0.05",   "0.1",   "0.2",   "0.5",
                         "1",      "2",      "5",      "10",    "20",    "50",
                         "100"};
  const int kCumulative[25] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2,
                               2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3};
  std::string expected;
  expected += "# HELP test_cb_items sampled at render time\n";
  expected += "# TYPE test_cb_items gauge\n";
  expected += "test_cb_items 42\n";
  // A labelled callback family renders its samples in the order returned.
  expected += "# HELP test_cb_per_name one sample per name\n";
  expected += "# TYPE test_cb_per_name gauge\n";
  expected += "test_cb_per_name{name=\"b\"} 2\n";
  expected += "test_cb_per_name{name=\"a\\\"q\"} 1\n";
  expected += "# HELP test_cb_total a counter kept elsewhere\n";
  expected += "# TYPE test_cb_total counter\n";
  expected += "test_cb_total 5\n";
  expected += "# HELP test_latency_seconds request latency\n";
  expected += "# TYPE test_latency_seconds histogram\n";
  for (int i = 0; i < 25; ++i) {
    expected += std::string("test_latency_seconds_bucket{le=\"") + kLe[i] + "\"} " +
                std::to_string(kCumulative[i]) + "\n";
  }
  expected += "test_latency_seconds_bucket{le=\"+Inf\"} 4\n";
  expected += "test_latency_seconds_sum 200.2545\n";
  expected += "test_latency_seconds_count 4\n";
  expected += "# HELP test_queue_depth queue depth\n";
  expected += "# TYPE test_queue_depth gauge\n";
  expected += "test_queue_depth 7\n";
  expected += "# HELP test_requests_total requests served\n";
  expected += "# TYPE test_requests_total counter\n";
  expected += "test_requests_total{code=\"2xx\"} 3\n";

  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(ObsMetricsRegistry, HistogramWithLabelsSplicesLeCorrectly) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("stage_seconds", "stage", {{"stage", "fit"}});
  h->Observe(0.003);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("stage_seconds_bucket{stage=\"fit\",le=\"0.005\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stage_seconds_count{stage=\"fit\"} 1\n"), std::string::npos);
}

TEST(ObsMetricsRegistry, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("esc_total", "esc", {{"path", "a\"b\\c"}})->Increment();
  // Only backslash, quote and newline are escaped; a tab passes through.
  registry.GetCounter("esc_total", "esc", {{"path", "t\tn\n"}})->Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("esc_total{path=\"a\\\"b\\\\c\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("esc_total{path=\"t\tn\\n\"} 1\n"), std::string::npos) << text;
}

TEST(ObsMetricsRegistry, RenderJsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("j_total", "j")->Increment(2);
  Histogram* h = registry.GetHistogram("j_seconds", "j", {{"stage", "fit"}});
  h->Observe(0.003);
  EXPECT_EQ(registry.RenderJson(),
            "{\"j_seconds\":[{\"labels\":{\"stage\":\"fit\"},\"count\":1,"
            "\"sum_seconds\":0.003,\"p50\":0.005,\"p90\":0.005,\"p99\":0.005}],"
            "\"j_total\":[{\"labels\":{},\"value\":2}]}");
}

// The shared compute pool is process-wide, but its queue depth is one series
// on every service's registry: any service's /metricsz carries it.
TEST(ObsMetricsRegistry, GlobalCarriesTheSharedPoolGauge) {
  ReptileService service;
  HttpRequest request;
  request.method = "GET";
  request.target = request.path = "/metricsz";
  request.http_version = "HTTP/1.1";
  const std::string text = service.Handle(request).body;
  EXPECT_NE(text.find("# TYPE reptile_shared_pool_queue_depth gauge\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nreptile_shared_pool_queue_depth "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace

TEST(ObsTrace, MintTraceIdIsSixteenHexAndUnique) {
  const std::string a = MintTraceId();
  const std::string b = MintTraceId();
  EXPECT_NE(a, b);
  for (const std::string& id : {a, b}) {
    ASSERT_EQ(id.size(), 16u) << id;
    for (char c : id) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
    }
    EXPECT_TRUE(ValidTraceId(id));
  }
}

TEST(ObsTrace, ValidTraceIdRejectsHostileInput) {
  EXPECT_TRUE(ValidTraceId("abc123"));
  EXPECT_TRUE(ValidTraceId("A-1_b.c"));
  EXPECT_TRUE(ValidTraceId(std::string(64, 'x')));
  EXPECT_FALSE(ValidTraceId(""));
  EXPECT_FALSE(ValidTraceId(std::string(65, 'x')));
  EXPECT_FALSE(ValidTraceId("a b"));          // header-splitting fodder
  EXPECT_FALSE(ValidTraceId("a\r\nX: y"));    // CRLF injection
  EXPECT_FALSE(ValidTraceId("a\"b"));         // breaks JSON/log quoting
  EXPECT_FALSE(ValidTraceId("caf\xc3\xa9"));  // non-ASCII
}

TEST(ObsTrace, ScopedSpanRecordsOnDestruction) {
  TraceContext trace("tid");
  EXPECT_EQ(trace.id(), "tid");
  {
    ScopedSpan span(&trace, "fit");
    span.SetDetail("hits=3 misses=1");
    EXPECT_TRUE(trace.Spans().empty());  // not yet: records at destruction
  }
  std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "fit");
  EXPECT_EQ(spans[0].detail, "hits=3 misses=1");
  EXPECT_GE(spans[0].start_seconds, 0.0);
  EXPECT_GE(spans[0].duration_seconds, 0.0);
}

TEST(ObsTrace, NullTraceMakesScopedSpanANoOp) {
  ScopedSpan span(nullptr, "anything");
  span.SetDetail("ignored");
  // Destruction must not crash; nothing to assert beyond surviving.
}

TEST(ObsTrace, ServerTimingHeaderFormat) {
  TraceContext trace("tid");
  trace.AddSpan("parse", 0.0, 0.012);
  trace.AddSpan("fit", 0.012, 1.2005, "hits=3 misses=1");
  EXPECT_EQ(ServerTimingHeader(trace, 2.5),
            "parse;dur=12.000, fit;desc=\"hits=3 misses=1\";dur=1200.500, "
            "total;dur=2500.000");
}

TEST(ObsTrace, ZeroDurationsZeroesEveryDur) {
  TraceContext trace("tid");
  trace.AddSpan("parse", 0.0, 0.012);
  trace.AddSpan("rank", 0.012, 0.5, "rows=10");
  trace.set_zero_durations(true);
  EXPECT_EQ(ServerTimingHeader(trace, 2.5),
            "parse;dur=0.000, rank;desc=\"rows=10\";dur=0.000, total;dur=0.000");
}

// The engine's stage spans carry work counts: plans built, the fit stage's
// cache outcome plus the rows and non-empty groups of the statistics passes
// it ran (a group-statistics cache hit runs none), and the rows the rank
// stage's fallback sibling GroupBys read. Server-Timing renders each detail
// as a quoted desc, so none may hold a comma.
TEST(ObsTrace, RecommendSpanDetailsCountTheWork) {
  PanelSpec spec;
  spec.districts = 4;
  spec.villages_per_district = 3;
  spec.years = 5;
  spec.rows_per_group = 3;  // 4 x 3 x 5 x 3 = 180 rows
  Result<Session> session = Session::Create(MakeSeverityPanel(spec));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y1");
  auto details = [&] {
    TraceContext trace("tid");
    EXPECT_TRUE(session->Recommend(complaint, BatchOptions().WithTrace(&trace)).ok());
    std::vector<std::string> out;
    for (const TraceSpan& span : trace.Spans()) {
      EXPECT_EQ(span.detail.find(','), std::string::npos) << span.detail;
      out.push_back(span.name + ":" + span.detail);
    }
    return out;
  };
  // Two plans (geo at district, time at year), one measure: two passes of
  // 180 rows making 4 + 5 groups; std fits count, mean and std per plan.
  // The year filter is a key column of the time plan, whose siblings are
  // selected from its groups; the geo plan's key is district only, so its
  // ranking groups the 180 rows.
  EXPECT_EQ(details(), (std::vector<std::string>{"validate:", "plan:plans=2",
                                                 "fit:hits=0 misses=6 rows=360 groups=9",
                                                 "rank:rows=180"}));
  // Warm: every fit and both statistics passes are cache hits.
  EXPECT_EQ(details(), (std::vector<std::string>{"validate:", "plan:plans=2",
                                                 "fit:hits=6 misses=0 rows=0 groups=0",
                                                 "rank:rows=180"}));
}

// AddSpan is advertised thread-safe: hammer it and check nothing is lost.
TEST(ObsTrace, ConcurrentAddSpanLosesNothing) {
  TraceContext trace("tid");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i) trace.AddSpan("s", 0.0, 0.001);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(trace.Spans().size(), static_cast<size_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// RequestRing

RequestRecord MakeRecord(const std::string& id) {
  RequestRecord record;
  record.trace_id = id;
  record.method = "POST";
  record.path = "/v1/recommend";
  record.http_status = 200;
  record.duration_seconds = 0.5;
  return record;
}

TEST(ObsRing, CapacityClampsToOne) {
  RequestRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Add(MakeRecord("a"));
  ring.Add(MakeRecord("b"));
  std::vector<RequestRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, "b");
}

TEST(ObsRing, OverwritesOldestKeepsOrderAndSequence) {
  RequestRing ring(3);
  for (const char* id : {"a", "b", "c", "d", "e"}) ring.Add(MakeRecord(id));
  std::vector<RequestRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].trace_id, "c");
  EXPECT_EQ(records[1].trace_id, "d");
  EXPECT_EQ(records[2].trace_id, "e");
  EXPECT_EQ(records[0].sequence, 3);
  EXPECT_EQ(records[1].sequence, 4);
  EXPECT_EQ(records[2].sequence, 5);
}

TEST(ObsRing, ToJsonShape) {
  RequestRing ring(2);
  RequestRecord record = MakeRecord("abc");
  record.spans.push_back(TraceSpan{"fit", 0.001, 0.25, "hits=3"});
  record.spans.push_back(TraceSpan{"rank", 0.251, 0.125, ""});
  ring.Add(std::move(record));
  EXPECT_EQ(ring.ToJson(),
            "{\"capacity\":2,\"requests\":[{\"seq\":1,\"trace_id\":\"abc\","
            "\"method\":\"POST\",\"path\":\"/v1/recommend\",\"status\":200,"
            "\"duration_ms\":500,\"spans\":[{\"name\":\"fit\",\"start_ms\":1,"
            "\"duration_ms\":250,\"detail\":\"hits=3\"},{\"name\":\"rank\","
            "\"start_ms\":251,\"duration_ms\":125}]}]}");
}

// ---------------------------------------------------------------------------
// Logger

TEST(ObsLog, ParseLogLevelCoversAllNamesAndRejectsJunk) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose").has_value());
  EXPECT_FALSE(ParseLogLevel("").has_value());
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
}

TEST(ObsLog, LogFieldsRenderAsJsonFragments) {
  EXPECT_EQ(LogField::Str("k", "a\"b").json_value, "\"a\\\"b\"");
  EXPECT_EQ(LogField::Num("k", 1.5).json_value, "1.5");
  EXPECT_EQ(LogField::Int("k", -3).json_value, "-3");
  EXPECT_EQ(LogField::Bool("k", true).json_value, "true");
  EXPECT_EQ(LogField::Raw("k", "{\"x\":1}").json_value, "{\"x\":1}");
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ObsLog, WritesJsonLinesAndFiltersByLevel) {
  const std::string path = testing::TempDir() + "/reptile_obs_log_test.jsonl";
  std::remove(path.c_str());
  Logger& logger = Logger::Global();
  ASSERT_TRUE(logger.Configure(LogLevel::kInfo, path));

  EXPECT_FALSE(logger.Enabled(LogLevel::kDebug));
  EXPECT_TRUE(logger.Enabled(LogLevel::kInfo));
  LogEvent(LogLevel::kDebug, "dropped", {});
  LogEvent(LogLevel::kInfo, "hello",
           {LogField::Str("trace_id", "abc123"), LogField::Int("status", 200),
            LogField::Num("duration_ms", 1.5)});

  // Restore the default sink before asserting, so a failure's own logging
  // cannot deadlock on the file and later tests see the stock logger.
  ASSERT_TRUE(logger.Configure(LogLevel::kInfo, ""));

  const std::string contents = ReadFileOrDie(path);
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.find("dropped"), std::string::npos);
  // One complete JSON line: starts with a ts field, ends with a newline.
  EXPECT_EQ(contents.rfind("{\"ts\":\"", 0), 0u) << contents;
  EXPECT_EQ(contents.back(), '\n');
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), 1);
  EXPECT_NE(contents.find("\"level\":\"info\""), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"event\":\"hello\""), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"trace_id\":\"abc123\""), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"status\":200"), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"duration_ms\":1.5"), std::string::npos) << contents;
  std::remove(path.c_str());
}

TEST(ObsLog, OffLevelSilencesEverything) {
  const std::string path = testing::TempDir() + "/reptile_obs_log_off_test.jsonl";
  std::remove(path.c_str());
  Logger& logger = Logger::Global();
  ASSERT_TRUE(logger.Configure(LogLevel::kOff, path));
  LogEvent(LogLevel::kError, "silenced", {});
  ASSERT_TRUE(logger.Configure(LogLevel::kInfo, ""));
  EXPECT_EQ(ReadFileOrDie(path), "");
  std::remove(path.c_str());
}

TEST(ObsLog, ConfigureFailsOnUnopenablePathAndKeepsOldSink) {
  Logger& logger = Logger::Global();
  EXPECT_FALSE(logger.Configure(LogLevel::kInfo, "/nonexistent-dir/x/y.log"));
  // Still usable afterwards (writes to the previous sink without crashing).
  LogEvent(LogLevel::kInfo, "still_alive", {});
  ASSERT_TRUE(logger.Configure(LogLevel::kInfo, ""));
}

// ---------------------------------------------------------------------------
// Build info

TEST(ObsBuildInfo, ValuesAreBakedIn) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_NE(info.git_hash, nullptr);
  EXPECT_NE(info.compile_flags, nullptr);
  EXPECT_GT(std::string(info.git_hash).size(), 0u);
  EXPECT_GT(std::string(info.compile_flags).size(), 0u);
  const std::string json = BuildInfoJson();
  EXPECT_EQ(json.rfind("{\"git_hash\":\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"compile_flags\":\""), std::string::npos) << json;
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace reptile
