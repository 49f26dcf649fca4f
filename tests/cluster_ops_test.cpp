// Tests for fmatrix/cluster_ops: the cluster iterator and the per-cluster
// gram / left / right operators against dense per-cluster references.

#include "common/rng.h"
#include "fmatrix/cluster_ops.h"
#include "fmatrix/left_mult.h"
#include "fmatrix/materialize.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace reptile {
namespace {

TEST(ClusterIterator, CoversAllRowsContiguously) {
  Rng rng(3);
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  ClusterIterator it(rm.fm);
  int64_t expected_cluster = 0;
  int64_t expected_row = 0;
  for (bool ok = it.Start(); ok; ok = it.Next()) {
    EXPECT_EQ(it.cluster(), expected_cluster);
    EXPECT_EQ(it.row_begin(), expected_row);
    EXPECT_GT(it.num_children(), 0);
    // Every row of the cluster maps back to this cluster id.
    for (int64_t r = it.row_begin(); r < it.row_begin() + it.num_children(); ++r) {
      EXPECT_EQ(rm.fm.ClusterOfRow(r), it.cluster());
    }
    expected_row += it.num_children();
    ++expected_cluster;
  }
  EXPECT_EQ(expected_row, rm.fm.num_rows());
  EXPECT_EQ(expected_cluster, rm.fm.num_clusters());
}

TEST(ClusterIterator, InterCodesMatchRowCodes) {
  Rng rng(17);
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  int intra_flat = rm.fm.FlatAttrIndex(rm.fm.IntraAttr());
  ClusterIterator it(rm.fm);
  std::vector<int32_t> codes;
  for (bool ok = it.Start(); ok; ok = it.Next()) {
    rm.fm.DecodeRowToCodes(it.row_begin(), &codes);
    for (int flat = 0; flat < rm.fm.num_attrs(); ++flat) {
      if (flat == intra_flat) continue;
      EXPECT_EQ(it.inter_code(flat), codes[flat]) << "cluster " << it.cluster();
    }
  }
}

// The suite names each param by its bytes, so the struct keeps the
// num_multi field the test IDs were recorded with; it is 0 everywhere, since
// the per-cluster operators take single-attribute matrices only.
struct ClusterParam {
  int seed;
  int hierarchies;
  int num_multi;
};

class ClusterOpsTest : public ::testing::TestWithParam<ClusterParam> {};

std::vector<double> PrefixOf(const std::vector<double>& r) {
  std::vector<double> prefix;
  RunningPrefix(r, &prefix);
  return prefix;
}

TEST_P(ClusterOpsTest, GramAndLeftMatchDense) {
  ClusterParam p = GetParam();
  Rng rng(p.seed);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  Matrix x = MaterializeMatrix(rm.fm);
  std::vector<double> r = testutil::RandomVector(&rng, rm.fm.num_rows());

  // Use a random subset of columns as the random-effect columns.
  std::vector<int> cols;
  for (int c = 0; c < rm.fm.num_cols(); ++c) {
    if (rng.Bernoulli(0.7) || c == 0) cols.push_back(c);
  }

  ClusterTable table = BuildClusterTable(rm.fm, cols);
  Matrix ztr(static_cast<size_t>(table.num_clusters()), cols.size());
  ClusterLeftMultiply(rm.fm, table, r, PrefixOf(r), &ztr);

  int64_t clusters_seen = 0;
  ForEachClusterGram(rm.fm, cols, [&](const ClusterData& data) {
    ++clusters_seen;
    size_t q = cols.size();
    // Dense reference on the cluster's row slice.
    Matrix xi(static_cast<size_t>(data.size), q);
    std::vector<double> ri(static_cast<size_t>(data.size));
    for (int64_t i = 0; i < data.size; ++i) {
      for (size_t j = 0; j < q; ++j) {
        xi(static_cast<size_t>(i), j) =
            x(static_cast<size_t>(data.row_begin + i), static_cast<size_t>(cols[j]));
      }
      ri[static_cast<size_t>(i)] = r[static_cast<size_t>(data.row_begin + i)];
    }
    Matrix expected_gram = xi.Transposed().Multiply(xi);
    EXPECT_TRUE(data.gram->ApproxEquals(expected_gram, 1e-8))
        << "cluster " << data.cluster << "\nactual " << data.gram->DebugString()
        << "\nexpected " << expected_gram.DebugString();
    Matrix expected_ztr = xi.Transposed().Multiply(Matrix::ColumnVector(ri));
    for (size_t j = 0; j < q; ++j) {
      EXPECT_NEAR(ztr(static_cast<size_t>(data.cluster), j), expected_ztr(j, 0), 1e-8)
          << "cluster " << data.cluster;
    }
  });
  EXPECT_EQ(clusters_seen, rm.fm.num_clusters());
}

TEST_P(ClusterOpsTest, RightMultiplyMatchesDense) {
  ClusterParam p = GetParam();
  Rng rng(p.seed + 500);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  Matrix x = MaterializeMatrix(rm.fm);
  std::vector<int> cols;
  for (int c = 0; c < rm.fm.num_cols(); ++c) {
    if (rng.Bernoulli(0.7) || c == 0) cols.push_back(c);
  }
  int64_t num_clusters = rm.fm.num_clusters();
  Matrix b(static_cast<size_t>(num_clusters), cols.size());
  for (size_t i = 0; i < b.size(); ++i) b.mutable_data()[i] = rng.Normal(0, 1);

  std::vector<double> out(static_cast<size_t>(rm.fm.num_rows()), 0.0);
  ClusterRightMultiply(rm.fm, BuildClusterTable(rm.fm, cols), b, &out);

  for (int64_t row = 0; row < rm.fm.num_rows(); ++row) {
    int64_t cluster = rm.fm.ClusterOfRow(row);
    double expected = 0.0;
    for (size_t j = 0; j < cols.size(); ++j) {
      expected += x(static_cast<size_t>(row), static_cast<size_t>(cols[j])) *
                  b(static_cast<size_t>(cluster), j);
    }
    EXPECT_NEAR(out[static_cast<size_t>(row)], expected, 1e-8) << "row " << row;
  }
}

std::vector<ClusterParam> MakeParams() {
  std::vector<ClusterParam> params;
  for (int seed = 0; seed < 8; ++seed) {
    for (int h : {1, 2, 3}) params.push_back(ClusterParam{seed, h, 0});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClusterOpsTest, ::testing::ValuesIn(MakeParams()));

TEST_P(ClusterOpsTest, LeftOnlyMatchesDense) {
  ClusterParam p = GetParam();
  Rng rng(p.seed + 900);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  Matrix x = MaterializeMatrix(rm.fm);
  std::vector<double> r = testutil::RandomVector(&rng, rm.fm.num_rows());
  std::vector<int> cols;
  for (int c = 0; c < rm.fm.num_cols(); ++c) cols.push_back(c);
  ClusterTable table = BuildClusterTable(rm.fm, cols);
  Matrix ztr(static_cast<size_t>(table.num_clusters()), cols.size());
  ClusterLeftMultiply(rm.fm, table, r, PrefixOf(r), &ztr);
  ASSERT_EQ(table.num_clusters(), rm.fm.num_clusters());
  for (int64_t g = 0; g < table.num_clusters(); ++g) {
    for (size_t j = 0; j < cols.size(); ++j) {
      double expected = 0.0;
      for (int64_t row = table.row_begin[static_cast<size_t>(g)];
           row < table.row_begin[static_cast<size_t>(g) + 1]; ++row) {
        expected += x(static_cast<size_t>(row), static_cast<size_t>(cols[j])) *
                    r[static_cast<size_t>(row)];
      }
      EXPECT_NEAR(ztr(static_cast<size_t>(g), j), expected, 1e-8) << "cluster " << g;
    }
  }
}

// The per-fit table is ForEachClusterGram's stream, copied bit for bit: the
// EM reads its grams every iteration instead of re-deriving them.
TEST_P(ClusterOpsTest, TableMatchesGramStream) {
  ClusterParam p = GetParam();
  Rng rng(p.seed + 1300);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  std::vector<int> cols;
  for (int c = 0; c < rm.fm.num_cols(); ++c) {
    if (rng.Bernoulli(0.7) || c == 0) cols.push_back(c);
  }
  ClusterTable table = BuildClusterTable(rm.fm, cols);
  size_t q = cols.size();
  ASSERT_EQ(table.q(), q);
  ASSERT_EQ(table.num_clusters(), rm.fm.num_clusters());
  EXPECT_EQ(table.row_begin.back(), rm.fm.num_rows());
  EXPECT_EQ(table.inter.size() + table.intra.size(), q);
  int64_t g = 0;
  ForEachClusterGram(rm.fm, cols, [&](const ClusterData& data) {
    ASSERT_EQ(data.cluster, g);
    size_t cluster = static_cast<size_t>(g);
    EXPECT_EQ(table.row_begin[cluster], data.row_begin);
    EXPECT_EQ(table.row_begin[cluster + 1] - table.row_begin[cluster], data.size);
    for (size_t k = 0; k < q * q; ++k) {
      EXPECT_EQ(table.Gram(g)[k], data.gram->data()[k]) << "cluster " << g << " cell " << k;
    }
    for (size_t a = 0; a < table.inter.size(); ++a) {
      EXPECT_EQ(table.InterValues(g)[a],
                (*data.values)[static_cast<size_t>(table.inter[a])])
          << "cluster " << g;
    }
    if (!table.intra.empty()) {
      EXPECT_EQ(table.child_node_begin[cluster], data.child_node_begin);
      size_t attrs = static_cast<size_t>(rm.fm.num_attrs());
      for (size_t k = 0; k < attrs; ++k) {
        EXPECT_EQ(table.codes[cluster * attrs + k], (*data.codes)[k]) << "cluster " << g;
      }
    }
    ++g;
  });
  EXPECT_EQ(g, table.num_clusters());
}

TEST(ClusterIterator, ReportsChangedAttrs) {
  Rng rng(31);
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  int intra_flat = rm.fm.FlatAttrIndex(rm.fm.IntraAttr());
  ClusterIterator it(rm.fm);
  std::vector<int32_t> tracked(rm.fm.num_attrs(), 0);
  std::vector<int32_t> expected;
  ASSERT_TRUE(it.Start());
  for (int flat : it.changed_attrs()) tracked[flat] = it.inter_code(flat);
  while (it.Next()) {
    for (int flat : it.changed_attrs()) tracked[flat] = it.inter_code(flat);
    rm.fm.DecodeRowToCodes(it.row_begin(), &expected);
    for (int flat = 0; flat < rm.fm.num_attrs(); ++flat) {
      if (flat == intra_flat) continue;
      EXPECT_EQ(tracked[flat], expected[flat])
          << "cluster " << it.cluster() << " attr " << flat;
    }
  }
}

TEST(ClusterOps, SingleClusterWhenLastTreeDepthOne) {
  FTree intercept = FTree::Singleton();
  FTree flat = FTree::FromPaths({{0}, {1}, {2}}, 1);
  FactorizedMatrix fm;
  fm.AddTree(&intercept);
  fm.AddTree(&flat);
  FeatureColumn ones;
  ones.attr = AttrId{0, 0};
  ones.value_map = {1.0};
  fm.AddColumn(ones);
  ClusterIterator it(fm);
  ASSERT_TRUE(it.Start());
  EXPECT_EQ(it.num_children(), 3);
  EXPECT_FALSE(it.Next());
}

}  // namespace
}  // namespace reptile
