// Integration tests: full engine sessions over the generators, exercising
// multi-step drill-downs, auxiliary registration, the drill-down caches, and
// detection outcomes that the benchmark harness relies on.

#include "baselines/sensitivity.h"
#include "baselines/support.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/accuracy_gen.h"
#include "datagen/covid_gen.h"
#include "datagen/fist_gen.h"
#include "gtest/gtest.h"

namespace reptile {
namespace {

TEST(Integration, AccuracyInstanceDetection) {
  // At strong auxiliary correlation, Reptile must find the corrupted group
  // in most instances; the baselines must not silently win.
  Rng rng(77);
  int reptile_hits = 0, sensitivity_hits = 0;
  const int kReps = 15;
  for (int rep = 0; rep < kReps; ++rep) {
    AccuracyOptions options;
    AccuracyInstance inst = MakeAccuracyInstance(options, ErrorType::kMissing, 0.95, &rng);
    Engine engine(&inst.dataset);
    AuxiliarySpec spec;
    spec.name = "aux_count";
    spec.table = &inst.aux_count;
    spec.join_attrs = {"group"};
    spec.measure = "aux";
    engine.RegisterAuxiliary(std::move(spec));
    Recommendation rec = engine.RecommendDrillDown(inst.complaint);
    ASSERT_FALSE(rec.best().top_groups.empty());
    reptile_hits += rec.best().top_groups[0].key[0] == inst.true_errors[0];

    GroupByResult siblings = GroupBy(inst.dataset.table(), {0}, -1);
    std::vector<ScoredGroup> sens = SensitivityRank(siblings, inst.complaint);
    sensitivity_hits += sens[0].key[0] == inst.true_errors[0];
  }
  EXPECT_GE(reptile_hits, 12) << "Reptile should detect missing records at rho=0.95";
  EXPECT_GE(reptile_hits, sensitivity_hits);
}

TEST(Integration, CovidTexasMissingReportsDetected) {
  CovidPanelConfig config;
  CovidIssueSpec issue = UsIssueList()[0];
  Dataset panel = MakeCorruptedPanel(config, issue);
  const Table& table = panel.table();
  Table lag1 = MakeCovidLagTable(panel, issue.measure, 1);
  Table lag7 = MakeCovidLagTable(panel, issue.measure, 7);

  EngineOptions options;
  options.model.AllRandomEffects();
  Engine engine(&panel, options);
  engine.ExcludeFromRandomEffects("state");
  for (const auto& [name, lag] : {std::make_pair("lag1", &lag1),
                                  std::make_pair("lag7", &lag7)}) {
    AuxiliarySpec spec;
    spec.name = name;
    spec.table = lag;
    spec.join_attrs = {"state", "day"};
    spec.measure = lag->column_name(2);
    engine.RegisterAuxiliary(std::move(spec));
  }
  engine.CommitDrillDown(1);

  char day_name[16];
  std::snprintf(day_name, sizeof(day_name), "d%03d", issue.day);
  int day_col = table.ColumnIndex("day");
  RowFilter filter;
  filter.Add(day_col, *table.dict(day_col).Find(day_name));
  Complaint complaint;
  complaint.agg = AggFn::kSum;
  complaint.measure_column = table.ColumnIndex(issue.measure);
  complaint.filter = filter;
  complaint.direction = issue.direction;

  Recommendation rec = engine.RecommendDrillDown(complaint);
  ASSERT_FALSE(rec.best().top_groups.empty());
  EXPECT_NE(rec.best().top_groups[0].description.find("state=Texas"), std::string::npos)
      << rec.best().top_groups[0].description;
}

TEST(Integration, FistSessionTwoSteps) {
  // Replay a study case as a two-step session: drill to villages via the
  // engine, commit, and verify the session state advances.
  FistStudy study = MakeFistStudy();
  const FistComplaintCase& c = study.cases[0];
  Engine engine(&study.dataset);
  AuxiliarySpec spec;
  spec.name = "rainfall";
  spec.table = &study.rainfall;
  spec.join_attrs = {"village", "year"};
  spec.measure = "rainfall";
  engine.RegisterAuxiliary(std::move(spec));
  engine.CommitDrillDown(1);
  engine.CommitDrillDown(0);
  engine.CommitDrillDown(0);
  EXPECT_TRUE(engine.CanDrill(0));  // village level still available
  Recommendation rec = engine.RecommendDrillDown(c.complaint);
  EXPECT_EQ(rec.best().attribute, "village");
  ASSERT_FALSE(rec.best().top_groups.empty());
  EXPECT_NE(rec.best().top_groups[0].description.find(c.expected_substr), std::string::npos);
  engine.CommitDrillDown(0);
  EXPECT_FALSE(engine.CanDrill(0));
  // Only the time hierarchy is exhausted too (depth 1 of 1).
  EXPECT_FALSE(engine.CanDrill(1));
}

TEST(Integration, DrillModeInvariance) {
  // The caching policy must not change recommendations, only runtime.
  Rng rng(5);
  AccuracyOptions options;
  AccuracyInstance inst = MakeAccuracyInstance(options, ErrorType::kIncrease, 0.9, &rng);
  std::vector<std::string> tops;
  for (DrillDownState::Mode mode :
       {DrillDownState::Mode::kStatic, DrillDownState::Mode::kDynamic,
        DrillDownState::Mode::kCacheDynamic}) {
    EngineOptions eopts;
    eopts.drill_mode = mode;
    Engine engine(&inst.dataset, eopts);
    AuxiliarySpec spec;
    spec.name = "aux_mean";
    spec.table = &inst.aux_mean;
    spec.join_attrs = {"group"};
    spec.measure = "aux";
    engine.RegisterAuxiliary(std::move(spec));
    Recommendation rec = engine.RecommendDrillDown(inst.complaint);
    ASSERT_FALSE(rec.best().top_groups.empty());
    tops.push_back(rec.best().top_groups[0].description);
  }
  EXPECT_EQ(tops[0], tops[1]);
  EXPECT_EQ(tops[1], tops[2]);
}

TEST(Integration, SupportBaselineFavorsLargestState) {
  // Support must pick the sub-unit-richest location regardless of the
  // complaint (the designed-in property behind Table 1/2's SP column).
  CovidPanelConfig config;
  CovidIssueSpec issue = UsIssueList()[0];
  Dataset panel = MakeCorruptedPanel(config, issue);
  const Table& table = panel.table();
  char day_name[16];
  std::snprintf(day_name, sizeof(day_name), "d%03d", issue.day);
  int day_col = table.ColumnIndex("day");
  int loc_col = table.ColumnIndex("state");
  RowFilter filter;
  filter.Add(day_col, *table.dict(day_col).Find(day_name));
  GroupByResult siblings =
      GroupBy(table, {day_col, loc_col}, table.ColumnIndex("confirmed"), filter);
  std::vector<ScoredGroup> ranked = SupportRank(siblings);
  EXPECT_EQ(table.dict(loc_col).name(ranked[0].key[1]), "California");
}

}  // namespace
}  // namespace reptile
