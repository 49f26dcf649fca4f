// Tests for model/linear: OLS recovery on synthetic data and the equivalence
// of the dense and factorised training paths.

#include "common/rng.h"
#include "fmatrix/materialize.h"
#include "gtest/gtest.h"
#include "model/linear.h"
#include "test_util.h"

namespace reptile {
namespace {

TEST(LinearDense, RecoversKnownCoefficients) {
  Rng rng(5);
  size_t n = 500;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = rng.Normal(0, 1);
    x(i, 2) = rng.Normal(0, 1);
    y[i] = 2.0 + 3.0 * x(i, 1) - 1.5 * x(i, 2) + rng.Normal(0, 0.1);
  }
  LinearModel model = TrainLinearDense(x, y);
  EXPECT_NEAR(model.beta[0], 2.0, 0.05);
  EXPECT_NEAR(model.beta[1], 3.0, 0.05);
  EXPECT_NEAR(model.beta[2], -1.5, 0.05);
  EXPECT_NEAR(model.sigma2, 0.01, 0.005);
}

TEST(LinearDense, CollinearHandledByRidge) {
  Matrix x = {{1, 1}, {1, 1}, {1, 1}};
  std::vector<double> y = {2.0, 2.0, 2.0};
  LinearModel model = TrainLinearDense(x, y, 1e-6);
  // The prediction at (1,1), beta[0] + beta[1], should still be ~2 even
  // though X is rank-1.
  EXPECT_NEAR(model.beta[0] + model.beta[1], 2.0, 1e-3);
}

class LinearEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LinearEquivalenceTest, FactorizedMatchesDense) {
  Rng rng(GetParam());
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  DecomposedAggregates agg(&rm.fm, rm.LocalPtrs());
  std::vector<double> y = testutil::RandomVector(&rng, rm.fm.num_rows());

  Matrix x = MaterializeMatrix(rm.fm);
  LinearModel dense = TrainLinearDense(x, y, 1e-9);
  LinearModel factorized = TrainLinearFactorized(rm.fm, agg, y, 1e-9);
  ASSERT_EQ(dense.beta.size(), factorized.beta.size());
  for (size_t c = 0; c < dense.beta.size(); ++c) {
    EXPECT_NEAR(dense.beta[c], factorized.beta[c], 1e-6) << "coef " << c;
  }
  EXPECT_NEAR(dense.sigma2, factorized.sigma2, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearEquivalenceTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace reptile
