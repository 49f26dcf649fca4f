// Tests for model/features: main-effect maps and auxiliary maps (single and
// multi attribute, raw and normalised).

#include "data/group_by.h"
#include "gtest/gtest.h"
#include "model/features.h"

namespace reptile {
namespace {

// Groups keyed by (year, village); measure = mean severity proxy.
GroupByResult MakeGroups() {
  Table t;
  int year = t.AddDimensionColumn("year");
  int village = t.AddDimensionColumn("village");
  int sev = t.AddMeasureColumn("sev");
  auto add = [&](const std::string& y, const std::string& v, double s) {
    t.SetDim(year, y);
    t.SetDim(village, v);
    t.SetMeasure(sev, s);
    t.CommitRow();
  };
  // year 0: villages 0,1,2 with severities 2, 4, 9.
  add("1984", "a", 2.0);
  add("1984", "b", 4.0);
  add("1984", "c", 9.0);
  // year 1: villages 0,1 with severities 6, 8.
  add("1985", "a", 6.0);
  add("1985", "b", 8.0);
  return GroupBy(t, {year, village}, sev);
}

TEST(MainEffectMap, MedianPerValue) {
  GroupByResult groups = MakeGroups();
  // Key position 0 = year; y = MEAN of each (year, village) group.
  std::vector<double> year_map = MainEffectMap(groups, 0, AggFn::kMean, 2);
  EXPECT_DOUBLE_EQ(year_map[0], 4.0);  // median{2,4,9}
  EXPECT_DOUBLE_EQ(year_map[1], 7.0);  // median{6,8}
  std::vector<double> village_map = MainEffectMap(groups, 1, AggFn::kMean, 3);
  EXPECT_DOUBLE_EQ(village_map[0], 4.0);  // median{2,6}
  EXPECT_DOUBLE_EQ(village_map[1], 6.0);  // median{4,8}
  EXPECT_DOUBLE_EQ(village_map[2], 9.0);  // single group
}

TEST(MainEffectMap, UnseenCodeGetsGlobalMedian) {
  GroupByResult groups = MakeGroups();
  std::vector<double> map = MainEffectMap(groups, 1, AggFn::kMean, 5);
  // Codes 3, 4 never appear: global median of {2,4,9,6,8} = 6.
  EXPECT_DOUBLE_EQ(map[3], 6.0);
  EXPECT_DOUBLE_EQ(map[4], 6.0);
}

TEST(MainEffectMap, CountStatistic) {
  GroupByResult groups = MakeGroups();
  std::vector<double> map = MainEffectMap(groups, 0, AggFn::kCount, 2);
  EXPECT_DOUBLE_EQ(map[0], 1.0);  // each (year,village) group has one row
  EXPECT_DOUBLE_EQ(map[1], 1.0);
}

TEST(CollectAttrValueStats, GroupsByCode) {
  GroupByResult groups = MakeGroups();
  AttrValueStats stats = CollectAttrValueStats(groups, 0, AggFn::kMean, 2);
  ASSERT_EQ(stats.y_per_code.size(), 2u);
  EXPECT_EQ(stats.y_per_code[0].size(), 3u);
  EXPECT_EQ(stats.y_per_code[1].size(), 2u);
}

Table MakeAuxTable() {
  Table aux;
  int v = aux.AddDimensionColumn("village");
  int rain = aux.AddMeasureColumn("rain");
  auto add = [&](const std::string& name, double r) {
    aux.SetDim(v, name);
    aux.SetMeasure(rain, r);
    aux.CommitRow();
  };
  add("a", 100.0);
  add("a", 200.0);  // averaged to 150
  add("b", 300.0);
  add("c", 600.0);
  return aux;
}

TEST(AuxiliaryMap, AveragesAndNormalizes) {
  Table aux = MakeAuxTable();
  std::vector<double> raw =
      AuxiliaryMapFromCodes(aux.dim_codes(0), aux.measure(1), 3, /*normalize=*/false);
  EXPECT_DOUBLE_EQ(raw[0], 150.0);
  EXPECT_DOUBLE_EQ(raw[1], 300.0);
  EXPECT_DOUBLE_EQ(raw[2], 600.0);

  std::vector<double> norm =
      AuxiliaryMapFromCodes(aux.dim_codes(0), aux.measure(1), 3, /*normalize=*/true);
  // mean 350, sd ~228.0; normalized values sum to ~0.
  EXPECT_NEAR(norm[0] + norm[1] + norm[2], 0.0, 1e-9);
  EXPECT_LT(norm[0], 0.0);
  EXPECT_GT(norm[2], 0.0);
}

TEST(AuxiliaryMap, MissingCodesReadZero) {
  Table aux = MakeAuxTable();
  std::vector<double> norm =
      AuxiliaryMapFromCodes(aux.dim_codes(0), aux.measure(1), 5, /*normalize=*/true);
  EXPECT_DOUBLE_EQ(norm[3], 0.0);
  EXPECT_DOUBLE_EQ(norm[4], 0.0);
}

TEST(MultiAuxiliaryMap, TupleKeys) {
  Table aux;
  int s = aux.AddDimensionColumn("state");
  int d = aux.AddDimensionColumn("day");
  int m = aux.AddMeasureColumn("lag");
  auto add = [&](const std::string& sv, const std::string& dv, double v) {
    aux.SetDim(s, sv);
    aux.SetDim(d, dv);
    aux.SetMeasure(m, v);
    aux.CommitRow();
  };
  add("tx", "d1", 10.0);
  add("tx", "d2", 20.0);
  add("ny", "d1", 30.0);
  auto map = MultiAuxiliaryMapFromCodes({&aux.dim_codes(s), &aux.dim_codes(d)}, aux.measure(m),
                                        /*normalize=*/false);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_DOUBLE_EQ((map[{0, 0}]), 10.0);
  EXPECT_DOUBLE_EQ((map[{1, 0}]), 30.0);
}

}  // namespace
}  // namespace reptile
