// Cross-build byte pins of recommend responses. Each case hashes the
// ToJson() bytes of a fixed sequence of responses, with the timing fields
// (train_seconds, total_seconds) zeroed as perfbench's oracle does, and
// compares the digest with one recorded from an earlier build. The other
// byte checks (perfbench's oracle, reptile_loadgen, NetDifferentialTest)
// compare a build only with itself, so an engine change that moves any
// byte of a response fails here and nowhere else.

#include <span>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "datagen/panel_gen.h"
#include "datagen/synthetic.h"
#include "gtest/gtest.h"
#include "reptile/reptile.h"
#include "version/append.h"

namespace reptile {
namespace {

// Fnv1a over the timeless JSON of every response added, in order.
class ResponseDigest {
 public:
  void Add(ExploreResponse response) {
    EXPECT_TRUE(response.has_recommendation()) << response.complaint;
    for (HierarchyResponse& candidate : response.candidates) {
      candidate.train_seconds = 0.0;
      candidate.total_seconds = 0.0;
    }
    hasher_.MixString(response.ToJson());
  }
  void Add(const BatchExploreResponse& batch) {
    hasher_.MixI64(batch.models_trained);
    hasher_.MixI64(batch.fit_cache_hits);
    for (const ExploreResponse& response : batch.responses) Add(response);
  }
  std::string Hex() const { return hasher_.Hex(); }

 private:
  Fnv1aHasher hasher_;
};

Dataset SmallPanel() {
  PanelSpec spec;
  spec.districts = 4;
  spec.villages_per_district = 3;
  spec.years = 5;
  spec.rows_per_group = 3;
  return MakeSeverityPanel(spec);
}

std::vector<ComplaintSpec> MixedBatch() {
  return {ComplaintSpec::TooHigh("sum", "severity").Where("year", "y1"),
          ComplaintSpec::TooLow("mean", "severity").Where("district", "d2"),
          ComplaintSpec::Equals("mean", "severity", 4.0).Where("year", "y3")};
}

// A full COUNT walk: recommend, commit the recommended hierarchy, repeat
// until every hierarchy is drilled to its leaves.
TEST(RecommendBytes, ChainCountWalk) {
  SyntheticOptions options;
  options.num_hierarchies = 3;
  options.attrs_per_hierarchy = 2;
  options.cardinality = 5;
  options.seed = 17;
  Result<Session> session = Session::Create(MakeChainDataset(options, /*rows=*/300));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ResponseDigest digest;
  int steps = 0;
  for (;; ++steps) {
    Result<ExploreResponse> response = session->Recommend(ComplaintSpec::TooHigh("count"));
    if (!response.ok()) {
      EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
      break;
    }
    ASSERT_NE(response->best(), nullptr);
    std::string hierarchy = response->best()->hierarchy;
    digest.Add(*std::move(response));
    ASSERT_TRUE(session->Commit(hierarchy).ok());
  }
  EXPECT_EQ(steps, 6);
  EXPECT_EQ(digest.Hex(), "9ddc08fd4175edf1");
}

TEST(RecommendBytes, PanelStdFiltersAcrossGeoCommit) {
  Result<Session> session = Session::Create(SmallPanel());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const std::vector<ComplaintSpec> complaints = {
      ComplaintSpec::TooHigh("std", "severity").Where("year", "y2"),
      ComplaintSpec::TooHigh("std", "severity").Where("district", "d1"),
      ComplaintSpec::TooHigh("std", "severity").Where("year", "y4").Where("district", "d3")};
  ResponseDigest digest;
  for (int round = 0; round < 2; ++round) {
    for (const ComplaintSpec& complaint : complaints) {
      Result<ExploreResponse> response = session->Recommend(complaint);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      digest.Add(*std::move(response));
    }
    if (round == 0) {
      ASSERT_TRUE(session->Commit("geo").ok());
    }
  }
  EXPECT_EQ(digest.Hex(), "b414db32d74f71e8");
}

TEST(RecommendBytes, RecommendAllMixedBatch) {
  Result<Session> session = Session::Create(SmallPanel());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const std::vector<ComplaintSpec> complaints = MixedBatch();
  Result<BatchExploreResponse> batch =
      session->RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ResponseDigest digest;
  digest.Add(*batch);
  EXPECT_EQ(digest.Hex(), "8657defdb40bc6c3");
}

TEST(RecommendBytes, RecommendAllDenseAndLinearModels) {
  Result<Session> session = Session::Create(SmallPanel());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const std::vector<ComplaintSpec> complaints = MixedBatch();
  ResponseDigest digest;
  for (const ModelSpec& spec : {ModelSpec().Dense(), ModelSpec().Linear()}) {
    Result<BatchExploreResponse> batch = session->RecommendAll(
        std::span<const ComplaintSpec>(complaints), BatchOptions().Model(spec));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    digest.Add(*batch);
  }
  EXPECT_EQ(digest.Hex(), "9ac59f077fedd2e9");
}

TEST(RecommendBytes, AppendedChildVersion) {
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(SmallPanel());
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  // Dyadic severities: a new village under d0 and a new year.
  Result<AppendResult> appended = AppendRowsCsv(
      *v1,
      "district,village,year,severity\n"
      "d0,d0_x,y0,5.5\n"
      "d0,d0_x,y0,6.25\n"
      "d1,d1_v0,y9,3.75\n");
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  Result<Session> session = Session::Open(appended->child);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ResponseDigest digest;
  for (const ComplaintSpec& complaint :
       {ComplaintSpec::TooHigh("std", "severity").Where("year", "y0"),
        ComplaintSpec::TooHigh("count").Where("district", "d0")}) {
    Result<ExploreResponse> response = session->Recommend(complaint);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    digest.Add(*std::move(response));
  }
  ASSERT_TRUE(session->Commit("geo").ok());
  Result<ExploreResponse> response =
      session->Recommend(ComplaintSpec::TooHigh("mean", "severity").Where("year", "y9"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  digest.Add(*std::move(response));
  EXPECT_EQ(digest.Hex(), "ed10aa769dcea528");
}

}  // namespace
}  // namespace reptile
