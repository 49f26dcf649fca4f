// Equivalence tests for fmatrix/: materialisation (with a multi-attribute
// column, which only MaterializeMatrix evaluates), and the factorised gram,
// left and right multiplication of single-attribute random forests against
// dense references.

#include "common/rng.h"
#include "fmatrix/gram.h"
#include "fmatrix/left_mult.h"
#include "fmatrix/materialize.h"
#include "fmatrix/right_mult.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace reptile {
namespace {

TEST(Materialize, MatchesFeatureRows) {
  Rng rng(2);
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2, 3, 4, /*num_multi=*/1);
  Matrix x = MaterializeMatrix(rm.fm);
  ASSERT_EQ(static_cast<int64_t>(x.rows()), rm.fm.num_rows());
  std::vector<double> row;
  for (int64_t r = 0; r < rm.fm.num_rows(); ++r) {
    rm.fm.FeatureRow(r, &row);
    for (int c = 0; c < rm.fm.num_cols(); ++c) {
      EXPECT_DOUBLE_EQ(x(static_cast<size_t>(r), static_cast<size_t>(c)), row[c])
          << "row " << r << " col " << c;
    }
  }
}

// The suite names each param by its bytes, so the struct keeps the
// num_multi field the test IDs were recorded with; it is 0 everywhere, since
// the factorised operators take single-attribute matrices only.
struct OpsParam {
  int seed;
  int hierarchies;
  int num_multi;
};

class FmatrixOpsTest : public ::testing::TestWithParam<OpsParam> {};

TEST_P(FmatrixOpsTest, GramMatchesDense) {
  OpsParam p = GetParam();
  Rng rng(p.seed);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  DecomposedAggregates agg(&rm.fm, rm.LocalPtrs());
  Matrix x = MaterializeMatrix(rm.fm);
  Matrix expected = x.Transposed().Multiply(x);
  Matrix actual = FactorizedGram(rm.fm, agg);
  EXPECT_TRUE(actual.ApproxEquals(expected, 1e-8))
      << "factorized:\n" << actual.DebugString() << "\ndense:\n" << expected.DebugString();
}

TEST_P(FmatrixOpsTest, LeftMultiplyMatchesDense) {
  OpsParam p = GetParam();
  Rng rng(p.seed + 1000);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  Matrix x = MaterializeMatrix(rm.fm);
  std::vector<double> r = testutil::RandomVector(&rng, rm.fm.num_rows());
  Matrix expected = Matrix::RowVector(r).Multiply(x);
  std::vector<double> xtr = FactorizedVecLeftMultiply(rm.fm, r);
  ASSERT_EQ(static_cast<int>(xtr.size()), rm.fm.num_cols());
  for (int c = 0; c < rm.fm.num_cols(); ++c) {
    EXPECT_NEAR(xtr[c], expected(0, static_cast<size_t>(c)), 1e-8);
  }
}

TEST_P(FmatrixOpsTest, RightMultiplyMatchesDense) {
  OpsParam p = GetParam();
  Rng rng(p.seed + 2000);
  testutil::RandomMatrix rm =
      testutil::MakeRandomMatrix(&rng, p.hierarchies, 3, 4, p.num_multi);
  Matrix x = MaterializeMatrix(rm.fm);
  std::vector<double> beta = testutil::RandomVector(&rng, rm.fm.num_cols());
  Matrix expected = x.Multiply(Matrix::ColumnVector(beta));
  std::vector<double> xb = FactorizedVecRightMultiply(rm.fm, beta);
  ASSERT_EQ(static_cast<int64_t>(xb.size()), rm.fm.num_rows());
  for (int64_t r = 0; r < rm.fm.num_rows(); ++r) {
    EXPECT_NEAR(xb[static_cast<size_t>(r)], expected(static_cast<size_t>(r), 0), 1e-8);
  }
}

std::vector<OpsParam> MakeParams() {
  std::vector<OpsParam> params;
  for (int seed = 0; seed < 8; ++seed) {
    for (int h : {1, 2, 3}) {
      params.push_back(OpsParam{seed, h, 0});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FmatrixOpsTest, ::testing::ValuesIn(MakeParams()));

TEST(WeightedColumnSum, MatchesDefinition) {
  FTree intercept = FTree::Singleton();
  FTree geo = FTree::FromPaths({{0, 0}, {0, 1}, {1, 2}}, 2);
  FactorizedMatrix fm;
  fm.AddTree(&intercept);
  fm.AddTree(&geo);
  FeatureColumn col;
  col.attr = AttrId{1, 0};  // district
  col.value_map = {2.0, 5.0};
  int c = fm.AddColumn(col);
  // d0 has 2 leaves, d1 has 1: WS = 2*2.0 + 1*5.0 = 9.
  EXPECT_DOUBLE_EQ(WeightedColumnSum(fm, c), 9.0);
}

TEST(Gram, InterceptCellCountsRows) {
  Rng rng(42);
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  // Make column 0 (on the intercept attr) a true all-ones column.
  // MakeRandomMatrix randomises it, so rebuild a fresh matrix here.
  FactorizedMatrix fm;
  for (const auto& t : rm.trees) fm.AddTree(t.get());
  FeatureColumn ones;
  ones.attr = AttrId{0, 0};
  ones.value_map = {1.0};
  int c = fm.AddColumn(ones);
  DecomposedAggregates agg(&fm, rm.LocalPtrs());
  Matrix gram = FactorizedGram(fm, agg);
  EXPECT_DOUBLE_EQ(gram(static_cast<size_t>(c), static_cast<size_t>(c)),
                   static_cast<double>(fm.num_rows()));
}

}  // namespace
}  // namespace reptile
