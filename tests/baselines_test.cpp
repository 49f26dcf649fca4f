// Tests for baselines/: sensitivity, support, outlier and raw
// winsorization.

#include "baselines/outlier.h"
#include "baselines/raw_winsor.h"
#include "baselines/sensitivity.h"
#include "baselines/support.h"
#include "gtest/gtest.h"

namespace reptile {
namespace {

// Three groups: a (count 10, mean 5), b (count 2, mean 50), c (count 6,
// mean 5 with one outlier row).
Table MakeTable() {
  Table t;
  int g = t.AddDimensionColumn("g");
  int m = t.AddMeasureColumn("m");
  auto add = [&](const std::string& name, double v) {
    t.SetDim(g, name);
    t.SetMeasure(m, v);
    t.CommitRow();
  };
  for (int i = 0; i < 10; ++i) add("a", 5.0);
  add("b", 50.0);
  add("b", 50.0);
  for (int i = 0; i < 5; ++i) add("c", 5.0);
  add("c", 30.0);  // outlier row inside c
  return t;
}

TEST(Sensitivity, DeletionBestResolvesTooHighMean) {
  Table t = MakeTable();
  GroupByResult siblings = GroupBy(t, {0}, 1);
  Complaint complaint = Complaint::TooHigh(AggFn::kMean, 1, RowFilter());
  std::vector<ScoredGroup> ranked = SensitivityRank(siblings, complaint);
  // Deleting b (mean 50) lowers the overall mean the most.
  EXPECT_EQ(ranked[0].key[0], *t.dict(0).Find("b"));
  // Deleted group's repaired sketch is empty.
  EXPECT_DOUBLE_EQ(ranked[0].repaired.count, 0.0);
}

TEST(Support, PicksLargestGroup) {
  Table t = MakeTable();
  GroupByResult siblings = GroupBy(t, {0}, 1);
  std::vector<ScoredGroup> ranked = SupportRank(siblings);
  EXPECT_EQ(ranked[0].key[0], *t.dict(0).Find("a"));  // 10 rows
  EXPECT_DOUBLE_EQ(ranked[0].observed.count, 10.0);
}

TEST(Outlier, RanksByDeviationIgnoringDirection) {
  Table t = MakeTable();
  GroupByResult siblings = GroupBy(t, {0}, 1);
  GroupPredictions predictions(siblings.num_groups());
  // Model: a should be 5 (deviation 0), b should be 10 (deviation 40),
  // c should be 20 (deviation ~10.8, opposite sign to b's).
  predictions[*siblings.Find({*t.dict(0).Find("a")})][AggFn::kMean] = 5.0;
  predictions[*siblings.Find({*t.dict(0).Find("b")})][AggFn::kMean] = 10.0;
  predictions[*siblings.Find({*t.dict(0).Find("c")})][AggFn::kMean] = 20.0;
  std::vector<ScoredGroup> ranked = OutlierRank(siblings, predictions, AggFn::kMean);
  EXPECT_EQ(ranked[0].key[0], *t.dict(0).Find("b"));
  EXPECT_EQ(ranked[1].key[0], *t.dict(0).Find("c"));
}

TEST(RawWinsor, DriftsValuesBackToCrossGroupBand) {
  Table t = MakeTable();
  Complaint complaint = Complaint::TooHigh(AggFn::kMean, 1, RowFilter());
  std::vector<ScoredGroup> ranked = RawWinsorRank(t, {0}, complaint);
  // Group means are {a:5, b:50, c:9.2}; the cross-group band clips b's rows
  // down hardest, so repairing b best resolves "MEAN too high".
  EXPECT_EQ(ranked[0].key[0], *t.dict(0).Find("b"));
  EXPECT_LT(ranked[0].repaired.Mean(), ranked[0].observed.Mean());
  // Row counts are preserved (Raw cannot repair missing/duplicates).
  EXPECT_DOUBLE_EQ(ranked[0].repaired.count, ranked[0].observed.count);
}

TEST(RawWinsor, RespectsComplaintFilter) {
  Table t = MakeTable();
  Complaint complaint = Complaint::TooHigh(AggFn::kMean, 1, RowFilter());
  complaint.filter.Add(0, *t.dict(0).Find("c"));
  std::vector<ScoredGroup> ranked = RawWinsorRank(t, {0}, complaint);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].key[0], *t.dict(0).Find("c"));
}

}  // namespace
}  // namespace reptile
