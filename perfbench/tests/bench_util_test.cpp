// Tests of the benchmark driver's own helpers. Build and run them with
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datagen/panel_gen.h"
#include "datagen/synthetic.h"
#include "sim/oracle.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  // Unsorted input; type-7 ranks: p50 of 1..10 sits halfway between 5 and 6.
  std::vector<double> v = {7, 3, 10, 1, 5, 9, 2, 8, 4, 6};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 9.1);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Median({4.0}), 4.0);
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
}

TEST(Percentile, IsExactNotBucketed) {
  // Samples that a 1-2-5 bucket histogram would all report as "5": the exact
  // percentiles keep them apart.
  std::vector<double> a = {3.1, 3.2, 3.3, 3.4, 3.5};
  std::vector<double> b = {4.1, 4.2, 4.3, 4.4, 4.5};
  EXPECT_DOUBLE_EQ(Median(a), 3.3);
  EXPECT_DOUBLE_EQ(Median(b), 4.3);
}

TEST(ServerTiming, ParsesStagesDescriptionsAndTotal) {
  const std::string header =
      "parse;dur=0.015, validate;dur=0.004, plan;dur=0.023, "
      "fit;desc=\"fits=2 hits=4\";dur=0.393, rank;dur=0.095, serialize;dur=0.071, "
      "total;dur=0.650";
  std::vector<TimingEntry> entries = ParseServerTiming(header);
  ASSERT_EQ(entries.size(), 7u);
  EXPECT_EQ(entries[0].name, "parse");
  EXPECT_DOUBLE_EQ(entries[0].dur_ms, 0.015);
  EXPECT_EQ(entries[3].name, "fit");
  EXPECT_EQ(entries[3].desc, "fits=2 hits=4");
  EXPECT_DOUBLE_EQ(entries[3].dur_ms, 0.393);
  EXPECT_DOUBLE_EQ(TimingMs(entries, "total"), 0.650);
  EXPECT_DOUBLE_EQ(TimingMs(entries, "absent"), 0.0);
}

TEST(ServerTiming, ToleratesMissingAndMalformedDurations) {
  std::vector<TimingEntry> entries = ParseServerTiming("a, b;dur=x, ;dur=1, c;dur=2.5");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_DOUBLE_EQ(entries[0].dur_ms, 0.0);
  EXPECT_DOUBLE_EQ(entries[1].dur_ms, 0.0);
  EXPECT_DOUBLE_EQ(entries[2].dur_ms, 2.5);
  EXPECT_TRUE(ParseServerTiming("").empty());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  const uint64_t root = log.Add("http.recommend", 0, 1, 0, 100);
  const uint64_t server = log.Add("server", root, 1, 10, 90);
  log.Add("stage.fit", server, 1, 20, 60);
  log.Add("stage.rank", server, 1, 50, 70);  // overlaps fit: counted once
  log.Add("stage.late", server, 1, 85, 120);  // clipped to the parent
  log.Add("other", 0, 2, 0, 1000);            // not a child of anyone above
  const std::vector<Span>& spans = log.spans();
  EXPECT_EQ(SelfTimeNs(spans[0], spans), 100 - 80);
  EXPECT_EQ(SelfTimeNs(spans[1], spans), 80 - (50 + 5));
  EXPECT_EQ(SelfTimeNs(spans[2], spans), 40);  // a leaf's self time is its span
}

TEST(Spans, IdsStayUniqueAcrossMergedLogs) {
  SpanLog a(0), b(uint64_t{1} << 48);
  a.Add("x", 0, 1, 0, 1);
  b.Add("y", 0, 1, 0, 1);
  a.Append(b);
  ASSERT_EQ(a.spans().size(), 2u);
  EXPECT_NE(a.spans()[0].id, a.spans()[1].id);
  EXPECT_NE(a.ToJsonLines().find("\"name\":\"y\""), std::string::npos);
}

TEST(Inputs, SameSeedSameCsvDigest) {
  auto chain_csv = [](uint64_t seed) {
    reptile::SyntheticOptions options;
    options.num_hierarchies = 4;
    options.attrs_per_hierarchy = 1;
    options.cardinality = 30;
    options.seed = seed;
    return reptile::RenderTableCsv(reptile::MakeChainDataset(options, 2000).table());
  };
  auto panel_csv = [](uint64_t seed) {
    reptile::PanelSpec spec;
    spec.seed = seed;
    return reptile::RenderTableCsv(reptile::MakeSeverityPanel(spec).table());
  };
  EXPECT_EQ(Digest(chain_csv(5)), Digest(chain_csv(5)));
  EXPECT_NE(Digest(chain_csv(5)), Digest(chain_csv(6)));
  EXPECT_EQ(Digest(panel_csv(5)), Digest(panel_csv(5)));
  EXPECT_NE(Digest(panel_csv(5)), Digest(panel_csv(6)));
  EXPECT_EQ(Digest("").size(), 16u);
}

TEST(Helpers, PrometheusJsonAndTimingFields) {
  const std::string metricsz =
      "# HELP reptile_model_cache_hits x\n"
      "reptile_model_cache_hits 42\n"
      "reptile_model_cache_hits_total 7\n"
      "reptile_dataset_versions{dataset=\"a\"} 3\n";
  EXPECT_DOUBLE_EQ(PromSample(metricsz, "reptile_model_cache_hits"), 42.0);
  EXPECT_DOUBLE_EQ(PromSample(metricsz, "reptile_dataset_versions"), 3.0);
  EXPECT_DOUBLE_EQ(PromSample(metricsz, "reptile_absent", -1.0), -1.0);

  EXPECT_EQ(JsonStringField("{\"session\":\"s-12\",\"x\":1}", "session"), "s-12");
  EXPECT_EQ(JsonIntFields("{\"a\":1,\"b\":{\"a\":20}}", "a"), (std::vector<int64_t>{1, 20}));
  EXPECT_EQ(ZeroTimingFields("{\"train_seconds\":0.25,\"total_seconds\":1e-3}"),
            "{\"train_seconds\":0,\"total_seconds\":0}");
  EXPECT_EQ(ReplaceAll("@SID@/@SID@", "@SID@", "s-1"), "s-1/s-1");
}

TEST(Helpers, StringListRoundTrip) {
  std::vector<std::string> in = {"", "a\nb", std::string(3, '\0'), "12\n"};
  std::vector<std::string> out;
  ASSERT_TRUE(DecodeStrings(EncodeStrings(in), &out));
  EXPECT_EQ(out, in);
  EXPECT_FALSE(DecodeStrings("2\n1\na", &out));
}

}  // namespace
}  // namespace perfbench
