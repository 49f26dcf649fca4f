// Tests for the public reptile::Session facade: the happy-path
// explore/commit loop, every name-based validation error (all returning
// non-OK Status without terminating the process), and the batched
// RecommendAll equivalence with sequential single-complaint calls.

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "reptile/reptile.h"

namespace reptile {
namespace {

// 4 districts x 5 villages x 6 years; severity = district + year effects +
// noise, with a drift error in (d0, v0, y3) and missing rows in (d1, v2, y2).
Table MakeDroughtTable() {
  Rng rng(7);
  Table table;
  int district_col = table.AddDimensionColumn("district");
  int village_col = table.AddDimensionColumn("village");
  int year_col = table.AddDimensionColumn("year");
  int severity_col = table.AddMeasureColumn("severity");
  for (int d = 0; d < 4; ++d) {
    for (int v = 0; v < 5; ++v) {
      std::string district = "d" + std::to_string(d);
      std::string village = district + "_v" + std::to_string(v);
      for (int y = 0; y < 6; ++y) {
        int rows = (d == 1 && v == 2 && y == 2) ? 2 : 8;
        for (int r = 0; r < rows; ++r) {
          double base = 5.0 + 0.5 * d + 0.3 * y + rng.Normal(0.0, 0.2);
          if (d == 0 && v == 0 && y == 3) base += 5.0;
          table.SetDim(district_col, district);
          table.SetDim(village_col, village);
          table.SetDim(year_col, "y" + std::to_string(y));
          table.SetMeasure(severity_col, base);
          table.CommitRow();
        }
      }
    }
  }
  return table;
}

std::vector<HierarchySchema> DroughtHierarchies() {
  return {{"geo", {"district", "village"}}, {"time", {"year"}}};
}

Session MakeSession(const ExploreRequest& options = {}) {
  Result<Session> session = Session::Create(MakeDroughtTable(), DroughtHierarchies(), options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

TEST(ApiSession, HappyPathExploreCommitLoop) {
  Session session = MakeSession();
  ASSERT_TRUE(session.Commit("time").ok());
  EXPECT_EQ(*session.DrillDepth("time"), 1);

  ComplaintSpec complaint =
      ComplaintSpec::TooHigh("mean", "severity").Where("year", "y3");
  Result<ExploreResponse> response = session.Recommend(complaint);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->has_recommendation());
  const HierarchyResponse* best = response->best();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->hierarchy, "geo");
  EXPECT_EQ(best->attribute, "district");
  ASSERT_FALSE(best->groups.empty());
  EXPECT_NE(best->groups[0].description.find("district=d0"), std::string::npos);
  // The response is plain data: named keys and named statistics.
  EXPECT_EQ(best->groups[0].key[0].first, "year");
  EXPECT_EQ(best->groups[0].key[0].second, "y3");
  EXPECT_TRUE(best->groups[0].observed.count("mean"));
  EXPECT_TRUE(best->groups[0].predicted.count("mean"));

  // Commit the recommendation by name and drill further.
  ASSERT_TRUE(session.Commit(best->hierarchy).ok());
  ComplaintSpec complaint2 = complaint;
  complaint2.Where("district", "d0");
  Result<ExploreResponse> response2 = session.Recommend(complaint2);
  ASSERT_TRUE(response2.ok()) << response2.status().ToString();
  const HierarchyResponse* best2 = response2->best();
  ASSERT_NE(best2, nullptr);
  EXPECT_EQ(best2->attribute, "village");
  ASSERT_FALSE(best2->groups.empty());
  EXPECT_NE(best2->groups[0].description.find("village=d0_v0"), std::string::npos);

  // Responses serialise to JSON.
  std::string json = response2->ToJson();
  EXPECT_NE(json.find("\"candidates\""), std::string::npos);
  EXPECT_NE(json.find("\"village\""), std::string::npos);
}

TEST(ApiSession, CreateValidatesHierarchyMetadata) {
  EXPECT_EQ(Session::Create(MakeDroughtTable(), {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Session::Create(MakeDroughtTable(), {{"geo", {"nonexistent"}}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Session::Create(MakeDroughtTable(), {{"geo", {"severity"}}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Session::Create(MakeDroughtTable(), {{"geo", {"district"}}, {"geo", {"year"}}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Session::Create(MakeDroughtTable(),
                            {{"geo", {"district"}}, {"geo2", {"district"}}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ApiSession, CreateValidatesOptions) {
  auto code_for = [&](const ExploreRequest& options) {
    return Session::Create(MakeDroughtTable(), DroughtHierarchies(), options).status().code();
  };
  EXPECT_EQ(code_for(ExploreRequest().TopK(0)), StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for(ExploreRequest().Model(ModelSpec().EmIterations(-1))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for(ExploreRequest().Threads(-1)), StatusCode::kInvalidArgument);
  // Unknown model, backend, policy and statistic names cannot be spelled in
  // C++ (the ModelSpec fields are enums); the wire's options.model refuses
  // them (ServerTest.OptionsModelRejectsUnknownAndWrongTypedFields).
}

TEST(ApiSession, RecommendValidatesComplaints) {
  Session session = MakeSession();
  ASSERT_TRUE(session.Commit("time").ok());
  auto code_for = [&](const ComplaintSpec& spec) {
    Result<ExploreResponse> response = session.Recommend(spec);
    EXPECT_FALSE(response.ok());
    return response.status().code();
  };

  // Unknown aggregate name.
  EXPECT_EQ(code_for(ComplaintSpec::TooHigh("median", "severity")),
            StatusCode::kInvalidArgument);
  // Unknown measure column.
  EXPECT_EQ(code_for(ComplaintSpec::TooHigh("mean", "sevarity")), StatusCode::kNotFound);
  // Dimension column used as a measure.
  EXPECT_EQ(code_for(ComplaintSpec::TooHigh("mean", "district")),
            StatusCode::kInvalidArgument);
  // Non-COUNT aggregate without a measure.
  EXPECT_EQ(code_for(ComplaintSpec::TooHigh("mean")), StatusCode::kInvalidArgument);
  // Unknown filter column.
  EXPECT_EQ(code_for(ComplaintSpec::TooHigh("mean", "severity").Where("country", "d0")),
            StatusCode::kNotFound);
  // Measure column used as a filter.
  EXPECT_EQ(code_for(ComplaintSpec::TooHigh("mean", "severity").Where("severity", "5")),
            StatusCode::kInvalidArgument);
  // Unknown filter value.
  EXPECT_EQ(code_for(ComplaintSpec::TooHigh("mean", "severity").Where("year", "y99")),
            StatusCode::kNotFound);
  // Bad direction string.
  ComplaintSpec bad_direction = ComplaintSpec::TooHigh("mean", "severity");
  bad_direction.direction = "sideways";
  EXPECT_EQ(code_for(bad_direction), StatusCode::kInvalidArgument);
  // Non-finite EQUALS target.
  EXPECT_EQ(code_for(ComplaintSpec::Equals("count", "",
                                           std::numeric_limits<double>::quiet_NaN())),
            StatusCode::kInvalidArgument);
  // The session survives all of the above: a valid complaint still works.
  Result<ExploreResponse> ok_response =
      session.Recommend(ComplaintSpec::TooHigh("mean", "severity").Where("year", "y3"));
  EXPECT_TRUE(ok_response.ok()) << ok_response.status().ToString();
}

TEST(ApiSession, CommitValidatesNamesAndDepth) {
  Session session = MakeSession();
  EXPECT_EQ(session.Commit("galaxy").code(), StatusCode::kNotFound);
  // Commit by attribute name resolves to its hierarchy.
  ASSERT_TRUE(session.Commit("village").ok());
  EXPECT_EQ(*session.DrillDepth("geo"), 1);
  ASSERT_TRUE(session.Commit("geo").ok());
  EXPECT_FALSE(*session.CanDrill("geo"));
  // Drilling an exhausted hierarchy fails without terminating.
  Status exhausted = session.Commit("geo");
  EXPECT_EQ(exhausted.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(exhausted.message().find("fully drilled"), std::string::npos);

  // Once every hierarchy is exhausted, recommendations fail too.
  ASSERT_TRUE(session.Commit("time").ok());
  Result<ExploreResponse> response =
      session.Recommend(ComplaintSpec::TooHigh("mean", "severity"));
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ApiSession, ViewComputesAndValidates) {
  Session session = MakeSession();
  Result<ViewResponse> view = session.View(
      ViewRequest().GroupBy("year").Measure("severity").Where("district", "d0"));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->rows.size(), 6u);
  EXPECT_EQ(view->rows[0].key[0].first, "year");
  EXPECT_GT(view->total.at("count"), 0.0);
  EXPECT_NE(view->ToJson().find("\"rows\""), std::string::npos);

  EXPECT_EQ(session.View(ViewRequest()).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.View(ViewRequest().GroupBy("nope")).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.View(ViewRequest().GroupBy("severity")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.View(ViewRequest().GroupBy("year").Measure("village")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      session.View(ViewRequest().GroupBy("year").Where("district", "atlantis")).status().code(),
      StatusCode::kNotFound);
}

TEST(ApiSession, RegisterAuxiliaryValidates) {
  Session session = MakeSession();
  Table aux;
  aux.AddDimensionColumn("village");
  aux.AddMeasureColumn("rainfall");
  aux.SetDim(0, "d0_v0");
  aux.SetMeasure(1, 120.0);
  aux.CommitRow();

  AuxiliaryRequest request;
  request.name = "rainfall";
  request.table = aux;
  request.join_attributes = {"village"};
  request.measure = "rainfall";

  AuxiliaryRequest bad = request;
  bad.join_attributes = {"continent"};
  EXPECT_EQ(session.RegisterAuxiliary(std::move(bad)).code(), StatusCode::kNotFound);
  bad = request;
  bad.join_attributes = {"district"};  // hierarchy attr, but absent in aux table
  EXPECT_EQ(session.RegisterAuxiliary(std::move(bad)).code(), StatusCode::kNotFound);
  bad = request;
  bad.measure = "snowfall";
  EXPECT_EQ(session.RegisterAuxiliary(std::move(bad)).code(), StatusCode::kNotFound);
  bad = request;
  bad.name = "";
  EXPECT_EQ(session.RegisterAuxiliary(std::move(bad)).code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(session.RegisterAuxiliary(request).ok());
  AuxiliaryRequest duplicate = request;
  EXPECT_EQ(session.RegisterAuxiliary(std::move(duplicate)).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(session.ExcludeFromRandomEffects("bogus").code(), StatusCode::kNotFound);
  // A measure column can never name a random-effect feature.
  EXPECT_EQ(session.ExcludeFromRandomEffects("severity").code(), StatusCode::kNotFound);
  EXPECT_TRUE(session.ExcludeFromRandomEffects("rainfall").ok());
  EXPECT_TRUE(session.ExcludeFromRandomEffects("district").ok());
}

TEST(ApiSession, FromCsvReportsPreciseErrors) {
  CsvDatasetRequest request;
  request.path = "/nonexistent/reptile.csv";
  request.csv.dimension_columns = {"district", "village", "year"};
  request.csv.measure_columns = {"severity"};
  request.hierarchies = DroughtHierarchies();
  EXPECT_EQ(Session::FromCsv(request).status().code(), StatusCode::kIoError);

  std::string path = ::testing::TempDir() + "/reptile_api_test.csv";
  {
    std::ofstream out(path);
    out << "district,village,year,severity\n";
    out << "d0,v0,y0,5.0\n";
    out << "d0,v0,y1,not_a_number\n";
  }
  request.path = path;
  Result<Session> bad_measure = Session::FromCsv(request);
  EXPECT_EQ(bad_measure.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad_measure.status().message().find("row 2"), std::string::npos)
      << bad_measure.status().ToString();
  EXPECT_NE(bad_measure.status().message().find("severity"), std::string::npos);

  {
    std::ofstream out(path);
    out << "district,village,year,severity\n";
    out << "d0,v0,5.0\n";
  }
  Result<Session> bad_fields = Session::FromCsv(request);
  EXPECT_EQ(bad_fields.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad_fields.status().message().find("row 1"), std::string::npos);

  {
    std::ofstream out(path);
    out << "district,village,year\n";
    out << "d0,v0,y0\n";
  }
  EXPECT_EQ(Session::FromCsv(request).status().code(), StatusCode::kNotFound);

  // A clean file round-trips into a working session.
  {
    std::ofstream out(path);
    out << "district,village,year,severity\n";
    for (int v = 0; v < 4; ++v) {
      for (int y = 0; y < 3; ++y) {
        for (int r = 0; r < 3; ++r) {
          out << "d" << (v / 2) << ",v" << v << ",y" << y << ","
              << (5.0 + v + 0.1 * y + 0.01 * r) << "\n";
        }
      }
    }
  }
  Result<Session> session = Session::FromCsv(request);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->dataset()->table().num_rows(), 36u);
  std::remove(path.c_str());
}

// The batched entry point must (a) return exactly what sequential calls
// return, and (b) train each shared (hierarchy, primitive) model at most
// once across the batch.
TEST(ApiSession, RecommendAllMatchesSequentialCalls) {
  Session batched = MakeSession();
  Session sequential = MakeSession();
  ASSERT_TRUE(batched.Commit("time").ok());
  ASSERT_TRUE(sequential.Commit("time").ok());

  // Four complaints sharing the one drillable hierarchy extension (geo ->
  // district). Primitive union: MEAN + COUNT + STD = 3 models.
  std::vector<ComplaintSpec> complaints = {
      ComplaintSpec::TooHigh("mean", "severity").Where("year", "y3"),
      ComplaintSpec::TooLow("mean", "severity").Where("year", "y1"),
      ComplaintSpec::TooLow("count", "severity").Where("year", "y2"),
      ComplaintSpec::TooHigh("std", "severity").Where("year", "y3"),
  };

  Result<BatchExploreResponse> batch =
      batched.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->responses.size(), complaints.size());

  // Shared models: the batch trains each (hierarchy, measure, primitive)
  // model at most once — 3 fits total, not the 6 sequential fits.
  EXPECT_EQ(batch->models_trained, 3);

  int64_t sequential_trained = 0;
  int64_t sequential_cache_hits = 0;
  for (size_t i = 0; i < complaints.size(); ++i) {
    int64_t before = sequential.models_trained();
    int64_t hits_before = sequential.fit_cache_hits();
    Result<ExploreResponse> single = sequential.Recommend(complaints[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    sequential_trained += sequential.models_trained() - before;
    sequential_cache_hits += sequential.fit_cache_hits() - hits_before;

    const ExploreResponse& from_batch = batch->responses[i];
    ASSERT_EQ(from_batch.candidates.size(), single->candidates.size());
    EXPECT_EQ(from_batch.best_index, single->best_index);
    for (size_t c = 0; c < single->candidates.size(); ++c) {
      const HierarchyResponse& bc = from_batch.candidates[c];
      const HierarchyResponse& sc = single->candidates[c];
      EXPECT_EQ(bc.hierarchy, sc.hierarchy);
      EXPECT_EQ(bc.attribute, sc.attribute);
      EXPECT_DOUBLE_EQ(bc.best_score, sc.best_score);
      ASSERT_EQ(bc.groups.size(), sc.groups.size());
      for (size_t g = 0; g < sc.groups.size(); ++g) {
        EXPECT_EQ(bc.groups[g].description, sc.groups[g].description);
        EXPECT_DOUBLE_EQ(bc.groups[g].score, sc.groups[g].score);
        EXPECT_DOUBLE_EQ(bc.groups[g].repaired_complaint_value,
                         sc.groups[g].repaired_complaint_value);
        ASSERT_EQ(bc.groups[g].predicted.size(), sc.groups[g].predicted.size());
        for (const auto& [stat, value] : sc.groups[g].predicted) {
          ASSERT_TRUE(bc.groups[g].predicted.count(stat));
          EXPECT_DOUBLE_EQ(bc.groups[g].predicted.at(stat), value);
        }
      }
    }
  }
  // The session-lifetime fitted-model cache makes even sequential calls
  // converge to the batch's fit count: each distinct (hierarchy, measure,
  // primitive) model is trained once ACROSS calls — later calls needing the
  // same model hit the cache (pre-ModelSpec this was 6: per-invocation
  // caching only, so repeated primitives refit every call).
  EXPECT_EQ(sequential_trained, 3);
  EXPECT_EQ(sequential_cache_hits, 3);

  // A bad complaint anywhere in a batch fails the whole batch up front,
  // tagged with its index.
  std::vector<ComplaintSpec> with_bad = complaints;
  with_bad[2] = ComplaintSpec::TooHigh("mean", "no_such_column");
  Result<BatchExploreResponse> bad =
      batched.RecommendAll(std::span<const ComplaintSpec>(with_bad));
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_NE(bad.status().message().find("complaints[2]"), std::string::npos);
}

TEST(ApiSession, RecommendAllInitializerList) {
  Session session = MakeSession();
  ASSERT_TRUE(session.Commit("time").ok());
  Result<BatchExploreResponse> batch = session.RecommendAll(
      {ComplaintSpec::TooHigh("mean", "severity").Where("year", "y3"),
       ComplaintSpec::TooLow("count", "").Where("year", "y2")});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->responses.size(), 2u);
  EXPECT_NE(batch->ToJson().find("\"models_trained\""), std::string::npos);
}

}  // namespace
}  // namespace reptile
