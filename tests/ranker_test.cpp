// Tests for core/ranker: repaired-complaint scoring and ordering, including
// the paper's Example 8 (Darube vs Zata).

#include "core/ranker.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "gtest/gtest.h"

namespace reptile {
namespace {

// Ranks every group of `siblings` and keeps them all. Each group's matrix
// row is its own index, so `fits` hold one prediction per group.
RankedGroups RankAll(const Table& table, const GroupByResult& siblings,
                     const std::vector<PrimitiveFit>& fits, const Complaint& complaint) {
  std::vector<int64_t> rows(siblings.num_groups());
  std::iota(rows.begin(), rows.end(), int64_t{0});
  std::vector<size_t> all(siblings.num_groups());
  std::iota(all.begin(), all.end(), size_t{0});
  return RankGroups(siblings, rows, all, fits, complaint,
                    static_cast<int>(siblings.num_groups()), table, {0});
}

// Builds a sibling set replaying Example 8: the Ofla 1986 count is 62, the
// complaint says it should be 70. Candidate repairs: Darube's count to 15
// (from 10) -> total 67, or Zata's count to 19 (from 9) -> total 72.
struct Example8 {
  Table table;
  GroupByResult siblings;
  Complaint complaint;

  Example8() {
    int v = table.AddDimensionColumn("village");
    auto add_rows = [&](const std::string& name, int count) {
      for (int i = 0; i < count; ++i) {
        table.SetDim(v, name);
        table.CommitRow();
      }
    };
    add_rows("Adishim", 5);
    add_rows("Darube", 10);
    add_rows("Dinka", 6);
    add_rows("Fala", 11);
    add_rows("Zata", 9);
    add_rows("Other", 21);  // fill to 62 total
    siblings = GroupBy(table, {v}, -1);
    complaint = Complaint::Equals(AggFn::kCount, -1, RowFilter(), 70.0);
  }
};

TEST(Ranker, Example8PrefersZata) {
  Example8 ex;
  // Model expectations: Darube should have 15 rows, Zata 19; everyone else
  // is as observed.
  std::vector<double> count(ex.siblings.num_groups());
  for (size_t g = 0; g < ex.siblings.num_groups(); ++g) count[g] = ex.siblings.stats(g).count;
  int32_t darube = *ex.table.dict(0).Find("Darube");
  int32_t zata = *ex.table.dict(0).Find("Zata");
  count[*ex.siblings.Find({darube})] = 15.0;
  count[*ex.siblings.Find({zata})] = 19.0;

  RankedGroups ranked = RankAll(ex.table, ex.siblings, {{AggFn::kCount, &count}}, ex.complaint);
  ASSERT_EQ(ranked.top.size(), ex.siblings.num_groups());
  // Zata's repair reaches 72 (fcomp = 2), Darube's 67 (fcomp = 3).
  EXPECT_EQ(ranked.top[0].key[0], zata);
  EXPECT_EQ(ranked.top[0].description, "village=Zata");
  EXPECT_DOUBLE_EQ(ranked.top[0].predicted.at(AggFn::kCount), 19.0);
  EXPECT_DOUBLE_EQ(ranked.top[0].repaired_complaint_value, 72.0);
  EXPECT_DOUBLE_EQ(ranked.top[0].score, 2.0);
  EXPECT_DOUBLE_EQ(ranked.best_score, 2.0);
  EXPECT_EQ(ranked.top[1].key[0], darube);
  EXPECT_DOUBLE_EQ(ranked.top[1].score, 3.0);
  // Groups repaired to their observed value leave the total at 62: fcomp 8.
  EXPECT_DOUBLE_EQ(ranked.top.back().score, 8.0);
}

TEST(Ranker, MeanComplaintRecombination) {
  Table t;
  int g = t.AddDimensionColumn("g");
  int m = t.AddMeasureColumn("m");
  auto add = [&](const std::string& name, double v) {
    t.SetDim(g, name);
    t.SetMeasure(m, v);
    t.CommitRow();
  };
  // Group a: values {10, 10}; group b: values {1}.
  add("a", 10.0);
  add("a", 10.0);
  add("b", 1.0);
  GroupByResult siblings = GroupBy(t, {0}, 1);
  Complaint complaint = Complaint::TooLow(AggFn::kMean, 1, RowFilter());
  // Model says b's mean should be 10 (missing drought signal).
  std::vector<double> mean(siblings.num_groups());
  mean[*siblings.Find({*t.dict(0).Find("a")})] = 10.0;
  mean[*siblings.Find({*t.dict(0).Find("b")})] = 10.0;
  RankedGroups ranked = RankAll(t, siblings, {{AggFn::kMean, &mean}}, complaint);
  // Repairing b lifts the overall mean from 7 to 10; repairing a leaves 7.
  EXPECT_EQ(ranked.top[0].key[0], *t.dict(0).Find("b"));
  EXPECT_NEAR(ranked.top[0].repaired_complaint_value, 10.0, 1e-9);
}

TEST(Ranker, StableOrderOnTies) {
  Table t;
  int g = t.AddDimensionColumn("g");
  t.SetDim(g, "x");
  t.CommitRow();
  t.SetDim(g, "y");
  t.CommitRow();
  GroupByResult siblings = GroupBy(t, {0}, -1);
  std::vector<double> count = {1.0, 1.0};
  Complaint complaint = Complaint::Equals(AggFn::kCount, -1, RowFilter(), 2.0);
  RankedGroups ranked = RankAll(t, siblings, {{AggFn::kCount, &count}}, complaint);
  // Equal scores: first-seen order preserved.
  EXPECT_EQ(ranked.top[0].key[0], 0);
  EXPECT_EQ(ranked.top[1].key[0], 1);
}

// NaN predictions make NaN scores, which `<` orders inconsistently; the
// ranker must still give the permutation std::stable_sort gave the
// per-sibling ScoredGroup vector it replaced. The expected order was
// recorded on that ranker with these inputs: 20 groups of two rows of 3.0,
// a too-high MEAN complaint, and tied predicted means.
TEST(Ranker, NanAndTiedScoresKeepTheRecordedOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> mean = {5, nan, 2, 5, nan, 1, 2, 7, nan, 2,
                                    1, 5,   3, nan, 2, 7, 1, 3, 3, nan};
  Table t;
  int g = t.AddDimensionColumn("g");
  int m = t.AddMeasureColumn("m");
  for (size_t i = 0; i < mean.size(); ++i) {
    for (int r = 0; r < 2; ++r) {
      t.SetDim(g, "g" + std::to_string(i));
      t.SetMeasure(m, 3.0);
      t.CommitRow();
    }
  }
  GroupByResult siblings = GroupBy(t, {g}, m);
  Complaint complaint = Complaint::TooHigh(AggFn::kMean, m, RowFilter());
  RankedGroups ranked = RankAll(t, siblings, {{AggFn::kMean, &mean}}, complaint);
  std::vector<int32_t> order;
  for (const GroupRecommendation& group : ranked.top) order.push_back(group.key[0]);
  EXPECT_EQ(order, (std::vector<int32_t>{5, 10, 2, 9, 12, 17, 18, 0, 1, 3, 4, 6, 11, 7, 8, 13,
                                         16, 14, 15, 19}));
  EXPECT_DOUBLE_EQ(ranked.best_score, 2.9);
  EXPECT_TRUE(std::isnan(ranked.top[8].score));
}

// Siblings are indices into the groups, each read at its own matrix row:
// the complaint total sums the siblings only, predictions come from
// fitted[rows[g]], and top_k keeps the best few.
TEST(Ranker, SiblingsReadTheirMatrixRows) {
  Table t;
  int g = t.AddDimensionColumn("g");
  for (const char* name : {"a", "b", "b", "c", "c", "c", "d"}) {
    t.SetDim(g, name);
    t.CommitRow();
  }
  GroupByResult groups = GroupBy(t, {g}, -1);  // a:1 b:2 c:3 d:1
  const std::vector<int64_t> rows = {3, 1, 0, 2};
  const std::vector<size_t> siblings = {1, 2};  // b and c: total 5
  const std::vector<double> count = {9.0, 2.0, 7.0, 1.0};  // by matrix row: c->9, b->2
  Complaint complaint = Complaint::TooHigh(AggFn::kCount, -1, RowFilter());
  const std::vector<PrimitiveFit> fits = {{AggFn::kCount, &count}};
  RankedGroups ranked = RankGroups(groups, rows, siblings, fits, complaint, 1, t, {g});
  ASSERT_EQ(ranked.top.size(), 1u);
  // Repairing b (2 -> 2) keeps 5; repairing c (3 -> 9) makes 11.
  EXPECT_EQ(ranked.top[0].description, "g=b");
  EXPECT_DOUBLE_EQ(ranked.top[0].predicted.at(AggFn::kCount), 2.0);
  EXPECT_DOUBLE_EQ(ranked.top[0].repaired_complaint_value, 5.0);
  EXPECT_DOUBLE_EQ(ranked.best_score, 5.0);

  RankedGroups none = RankGroups(groups, rows, {}, fits, complaint, 3, t, {g});
  EXPECT_TRUE(none.top.empty());
  EXPECT_EQ(none.best_score, std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace reptile
