// Tests for factor/frep: layout, row encoding/decoding, cluster structure,
// group-to-row mapping and the y-vector builder.

#include "factor/frep.h"

#include <cstring>
#include <memory>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace reptile {
namespace {

// Intercept tree + time tree (2 leaves) + geo tree (3 leaves under 2
// districts): the running example of Figure 3.
struct Fixture {
  FTree intercept = FTree::Singleton();
  FTree time = FTree::FromPaths({{0}, {1}}, 1);
  FTree geo = FTree::FromPaths({{0, 0}, {0, 1}, {1, 2}}, 2);
  FactorizedMatrix fm;

  Fixture() {
    fm.AddTree(&intercept);
    fm.AddTree(&time);
    fm.AddTree(&geo);
  }
};

FeatureColumn InterceptColumn() {
  FeatureColumn col;
  col.name = "intercept";
  col.attr = AttrId{0, 0};
  col.value_map = {1.0};
  return col;
}

TEST(FactorizedMatrix, LayoutAndRowCount) {
  Fixture f;
  EXPECT_EQ(f.fm.num_trees(), 3);
  EXPECT_EQ(f.fm.num_rows(), 6);  // 1 * 2 * 3
  EXPECT_EQ(f.fm.num_attrs(), 4);  // intercept + time + district + village
  EXPECT_EQ(f.fm.FlatAttrIndex(AttrId{1, 0}), 1);
  EXPECT_EQ(f.fm.FlatAttrIndex(AttrId{2, 1}), 3);
  EXPECT_EQ(f.fm.PrefixLeaves(2), 2);
  EXPECT_EQ(f.fm.SuffixLeaves(0), 6);
  EXPECT_EQ(f.fm.SuffixLeaves(2), 1);
}

TEST(FactorizedMatrix, RowRoundTrip) {
  Fixture f;
  std::vector<int64_t> leaves;
  for (int64_t row = 0; row < f.fm.num_rows(); ++row) {
    f.fm.DecodeRowToLeaves(row, &leaves);
    EXPECT_EQ(f.fm.RowOfLeaves(leaves), row);
  }
}

TEST(FactorizedMatrix, DecodeRowToCodes) {
  Fixture f;
  std::vector<int32_t> codes;
  // Row 4 = time leaf 1, geo leaf 1 (village 1 under district 0).
  f.fm.DecodeRowToCodes(4, &codes);
  EXPECT_EQ(codes, (std::vector<int32_t>{0, 1, 0, 1}));
  // Row 5 = time leaf 1, geo leaf 2 (village 2 under district 1).
  f.fm.DecodeRowToCodes(5, &codes);
  EXPECT_EQ(codes, (std::vector<int32_t>{0, 1, 1, 2}));
}

TEST(FactorizedMatrix, ClusterStructure) {
  Fixture f;
  // Intra attribute = village; clusters = time x district = 4.
  EXPECT_EQ(f.fm.IntraAttr(), (AttrId{2, 1}));
  EXPECT_EQ(f.fm.num_clusters(), 4);
  // Rows 0,1 (t0,d0) -> cluster 0; row 2 (t0,d1) -> 1; rows 3,4 -> 2; row 5 -> 3.
  EXPECT_EQ(f.fm.ClusterOfRow(0), 0);
  EXPECT_EQ(f.fm.ClusterOfRow(1), 0);
  EXPECT_EQ(f.fm.ClusterOfRow(2), 1);
  EXPECT_EQ(f.fm.ClusterOfRow(3), 2);
  EXPECT_EQ(f.fm.ClusterOfRow(4), 2);
  EXPECT_EQ(f.fm.ClusterOfRow(5), 3);
}

TEST(FactorizedMatrix, ClusterWhenLastTreeDepthOne) {
  FTree intercept = FTree::Singleton();
  FTree flat = FTree::FromPaths({{0}, {1}, {2}}, 1);
  FactorizedMatrix fm;
  fm.AddTree(&intercept);
  fm.AddTree(&flat);
  EXPECT_EQ(fm.num_clusters(), 1);
  EXPECT_EQ(fm.ClusterOfRow(2), 0);
}

TEST(FactorizedMatrix, ColumnsAndValues) {
  Fixture f;
  f.fm.AddColumn(InterceptColumn());
  FeatureColumn village;
  village.name = "village_effect";
  village.attr = AttrId{2, 1};
  village.value_map = {10.0, 20.0, 30.0};
  f.fm.AddColumn(village);
  EXPECT_TRUE(f.fm.AllSingleAttribute());
  EXPECT_EQ(f.fm.ColumnsOnAttr(AttrId{2, 1}), (std::vector<int>{1}));
  std::vector<double> features;
  f.fm.FeatureRow(5, &features);
  EXPECT_EQ(features, (std::vector<double>{1.0, 30.0}));
}

TEST(FactorizedMatrix, MultiAttrColumn) {
  Fixture f;
  FeatureColumn lag;
  lag.name = "lag";
  lag.is_multi = true;
  lag.attrs = {AttrId{1, 0}, AttrId{2, 1}};  // (time, village)
  lag.multi_map[{1, 2}] = 7.0;
  lag.missing_value = -1.0;
  f.fm.AddColumn(lag);
  EXPECT_FALSE(f.fm.AllSingleAttribute());
  std::vector<double> features;
  f.fm.FeatureRow(5, &features);  // time 1, village 2
  EXPECT_EQ(features[0], 7.0);
  f.fm.FeatureRow(0, &features);
  EXPECT_EQ(features[0], -1.0);
}

TEST(MapTableRows, MapsAndAggregates) {
  Fixture f;
  Table t;
  int time_col = t.AddDimensionColumn("t");
  int d_col = t.AddDimensionColumn("d");
  int v_col = t.AddDimensionColumn("v");
  int m_col = t.AddMeasureColumn("m");
  auto add = [&](int32_t tv, int32_t dv, int32_t vv, double m) {
    // Preload dictionaries with matching codes.
    while (t.dict(time_col).size() <= tv) t.mutable_dict(time_col).GetOrAdd(
        "t" + std::to_string(t.dict(time_col).size()));
    while (t.dict(d_col).size() <= dv)
      t.mutable_dict(d_col).GetOrAdd("d" + std::to_string(t.dict(d_col).size()));
    while (t.dict(v_col).size() <= vv)
      t.mutable_dict(v_col).GetOrAdd("v" + std::to_string(t.dict(v_col).size()));
    t.SetDimCode(time_col, tv);
    t.SetDimCode(d_col, dv);
    t.SetDimCode(v_col, vv);
    t.SetMeasure(m_col, m);
    t.CommitRow();
  };
  add(0, 0, 0, 1.0);
  add(0, 0, 0, 2.0);
  add(1, 1, 2, 5.0);
  std::vector<std::vector<int>> tree_columns = {{}, {time_col}, {d_col, v_col}};
  // Two groups in first-seen order: (t0, d0, v0) at row 0, (t1, d1, v2) at 5.
  GroupByResult groups = GroupBy(t, {time_col, d_col, v_col}, m_col);
  std::vector<int64_t> rows = GroupMatrixRows(f.fm, groups, tree_columns);
  EXPECT_EQ(rows, (std::vector<int64_t>{0, 5}));

  std::vector<Moments> y = BuildGroupMoments(f.fm, t, tree_columns, m_col);
  ASSERT_EQ(y.size(), 6u);
  EXPECT_DOUBLE_EQ(y[0].count, 2.0);
  EXPECT_DOUBLE_EQ(y[0].sum, 3.0);
  EXPECT_DOUBLE_EQ(y[5].sum, 5.0);
  EXPECT_DOUBLE_EQ(y[1].count, 0.0);  // empty parallel group retained
}

// The per-row BuildGroupMoments the GroupBy-based one replaced, verbatim:
// one LeafIndex per tree per row. The reference the differential below
// compares against.
std::vector<Moments> PerRowGroupMoments(const FactorizedMatrix& fm, const Table& table,
                                        const std::vector<std::vector<int>>& tree_columns,
                                        int measure_column, const RowFilter& filter) {
  std::vector<Moments> moments(static_cast<size_t>(fm.num_rows()));
  const std::vector<double>* measures =
      measure_column >= 0 ? &table.measure(measure_column) : nullptr;
  std::vector<int64_t> leaves(fm.num_trees(), 0);
  std::vector<int32_t> path;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (!filter.empty() && !table.Matches(filter, row)) continue;
    bool found = true;
    for (int k = 0; k < fm.num_trees(); ++k) {
      if (tree_columns[k].empty()) {
        leaves[k] = 0;
        continue;
      }
      path.resize(tree_columns[k].size());
      for (size_t l = 0; l < tree_columns[k].size(); ++l) {
        path[l] = table.dim_codes(tree_columns[k][l])[row];
      }
      int64_t leaf = fm.tree(k).LeafIndex(path.data(), static_cast<int>(path.size()));
      if (leaf < 0) {
        found = false;
        break;
      }
      leaves[k] = leaf;
    }
    if (!found) continue;
    double value = measures != nullptr ? (*measures)[row] : 0.0;
    moments[static_cast<size_t>(fm.RowOfLeaves(leaves))].Observe(value);
  }
  return moments;
}

// BuildGroupMoments against the per-row reference, every Moments bit
// pattern, over seeded tables: 1-3 trees of depth 1-3, COUNT and a real
// measure, with and without a row filter, and (odd seeds) the first tree
// built from a filtered subset of the rows, so the other rows' paths are
// absent and must be skipped.
TEST(BuildGroupMoments, MatchesPerRowReferenceBitForBit) {
  int cases_with_absent_paths = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    Table table;
    std::vector<std::vector<int>> tree_columns = {{}};  // intercept first
    const int num_trees = static_cast<int>(rng.UniformInt(1, 3));
    for (int k = 0; k < num_trees; ++k) {
      std::vector<int> columns;
      const int depth = static_cast<int>(rng.UniformInt(1, 3));
      for (int l = 0; l < depth; ++l) {
        int column = table.AddDimensionColumn("t" + std::to_string(k) + "l" + std::to_string(l));
        for (int v = 0; v < 3; ++v) table.mutable_dict(column).GetOrAdd("v" + std::to_string(v));
        columns.push_back(column);
      }
      tree_columns.push_back(columns);
    }
    const int measure = table.AddMeasureColumn("m");
    const int64_t rows = rng.UniformInt(1, 150);
    for (int64_t r = 0; r < rows; ++r) {
      for (size_t k = 1; k < tree_columns.size(); ++k) {
        for (int column : tree_columns[k]) {
          table.SetDimCode(column, static_cast<int32_t>(rng.UniformInt(0, 2)));
        }
      }
      table.SetMeasure(measure, rng.Normal(0.0, 10.0));
      table.CommitRow();
    }

    std::vector<std::unique_ptr<FTree>> trees;
    trees.push_back(std::make_unique<FTree>(FTree::Singleton()));
    for (size_t k = 1; k < tree_columns.size(); ++k) {
      RowFilter subset;
      if (seed % 2 == 1 && k == 1) {
        const int column = tree_columns[k].back();
        subset.Add(column, table.dim_codes(column)[0]);
      }
      trees.push_back(std::make_unique<FTree>(FTree::FromTable(table, tree_columns[k], subset)));
    }
    FactorizedMatrix fm;
    for (const std::unique_ptr<FTree>& tree : trees) fm.AddTree(tree.get());

    const int filter_column = tree_columns.back().front();
    RowFilter some_rows;
    some_rows.Add(filter_column, table.dim_codes(filter_column)[table.num_rows() - 1]);
    for (const RowFilter& filter : {RowFilter(), some_rows}) {
      for (int measure_column : {-1, measure}) {
        std::vector<Moments> want =
            PerRowGroupMoments(fm, table, tree_columns, measure_column, filter);
        std::vector<Moments> got =
            BuildGroupMoments(fm, table, tree_columns, measure_column, filter);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(Moments)), 0)
              << "seed " << seed << " row " << i << " measure " << measure_column;
        }
        double observed = 0.0;
        for (const Moments& m : want) observed += m.count;
        size_t matching = 0;
        for (size_t row = 0; row < table.num_rows(); ++row) {
          if (filter.empty() || table.Matches(filter, row)) ++matching;
        }
        if (observed < static_cast<double>(matching)) ++cases_with_absent_paths;
      }
    }
  }
  EXPECT_GT(cases_with_absent_paths, 0);
}

}  // namespace
}  // namespace reptile
