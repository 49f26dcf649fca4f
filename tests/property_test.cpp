// Property-based tests: randomized invariants spanning modules.
//
//  * Factorised operator stack == dense reference over deep random forests
//    (wider configurations than the per-module tests).
//  * EM monotonicity: the marginal log-likelihood never decreases across
//    iterations (the defining property of EM).
//  * Ranker identity: repairing a group to its observed statistics leaves
//    the complaint value unchanged.
//  * Decomposed-aggregate algebra: TOTAL_A * prefix multiplicity == n for
//    every attribute; COUNT sums to TOTAL.
//  * Distributive merge: deleting then re-adding a random group restores the
//    parent sketch exactly.

#include <cmath>

#include "common/rng.h"
#include "core/ranker.h"
#include "fmatrix/cluster_ops.h"
#include "fmatrix/gram.h"
#include "fmatrix/left_mult.h"
#include "fmatrix/materialize.h"
#include "fmatrix/right_mult.h"
#include "gtest/gtest.h"
#include "model/model_eval.h"
#include "model/multilevel.h"
#include "test_util.h"

namespace reptile {
namespace {

class DeepForestTest : public ::testing::TestWithParam<int> {};

TEST_P(DeepForestTest, FullOperatorStackMatchesDense) {
  Rng rng(GetParam());
  // Deeper and wider than the unit tests: up to 4 hierarchies, depth 4.
  int hierarchies = static_cast<int>(rng.UniformInt(1, 4));
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, hierarchies, 4, 5);
  if (rm.fm.num_rows() > 5000) GTEST_SKIP() << "cross product too large for dense check";
  DecomposedAggregates agg(&rm.fm, rm.LocalPtrs());
  Matrix x = MaterializeMatrix(rm.fm);

  // Gram.
  EXPECT_TRUE(FactorizedGram(rm.fm, agg).ApproxEquals(x.Transposed().Multiply(x), 1e-7));

  // Left/right multiplication.
  std::vector<double> r = testutil::RandomVector(&rng, rm.fm.num_rows());
  std::vector<double> xtr = FactorizedVecLeftMultiply(rm.fm, r);
  Matrix expected_xtr = Matrix::RowVector(r).Multiply(x);
  for (int c = 0; c < rm.fm.num_cols(); ++c) {
    EXPECT_NEAR(xtr[static_cast<size_t>(c)], expected_xtr(0, static_cast<size_t>(c)), 1e-7);
  }
  std::vector<double> beta = testutil::RandomVector(&rng, rm.fm.num_cols());
  std::vector<double> xb = FactorizedVecRightMultiply(rm.fm, beta);
  Matrix expected_xb = x.Multiply(Matrix::ColumnVector(beta));
  for (int64_t row = 0; row < rm.fm.num_rows(); ++row) {
    EXPECT_NEAR(xb[static_cast<size_t>(row)], expected_xb(static_cast<size_t>(row), 0), 1e-7);
  }

  // Cluster gram against dense slices (spot-check the first few clusters).
  std::vector<int> cols;
  for (int c = 0; c < rm.fm.num_cols(); ++c) cols.push_back(c);
  int64_t checked = 0;
  ForEachClusterGram(rm.fm, cols, [&](const ClusterData& data) {
    if (checked++ > 5) return;
    Matrix xi(static_cast<size_t>(data.size), cols.size());
    for (int64_t i = 0; i < data.size; ++i) {
      for (size_t j = 0; j < cols.size(); ++j) {
        xi(static_cast<size_t>(i), j) =
            x(static_cast<size_t>(data.row_begin + i), static_cast<size_t>(cols[j]));
      }
    }
    EXPECT_TRUE(data.gram->ApproxEquals(xi.Transposed().Multiply(xi), 1e-7));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepForestTest, ::testing::Range(100, 130));

// EM increases the marginal likelihood monotonically (up to numerical
// tolerance); more iterations never hurt.
class EmMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(EmMonotonicityTest, MarginalLikelihoodNonDecreasing) {
  Rng rng(GetParam());
  int64_t clusters = rng.UniformInt(5, 20);
  int64_t per_cluster = rng.UniformInt(5, 25);
  int64_t n = clusters * per_cluster;
  Matrix x(static_cast<size_t>(n), 2);
  std::vector<double> y(static_cast<size_t>(n));
  std::vector<int64_t> begins;
  for (int64_t g = 0; g < clusters; ++g) {
    begins.push_back(g * per_cluster);
    double u = rng.Normal(0.0, rng.Uniform(0.0, 2.0));
    for (int64_t i = 0; i < per_cluster; ++i) {
      int64_t row = g * per_cluster + i;
      double xv = rng.Normal(0.0, 1.0);
      x(static_cast<size_t>(row), 0) = 1.0;
      x(static_cast<size_t>(row), 1) = xv;
      y[static_cast<size_t>(row)] = 0.5 + 1.5 * xv + u + rng.Normal(0.0, 0.8);
    }
  }
  begins.push_back(n);
  DenseEmBackend backend(&x, begins, {0});
  double previous = -std::numeric_limits<double>::infinity();
  for (int iters : {1, 3, 6, 12, 20}) {
    MultiLevelOptions options;
    options.em_iters = iters;
    MultiLevelModel model = TrainMultiLevel(&backend, y, options);
    double ll = MultiLevelLogLikelihood(&backend, model, y);
    EXPECT_GE(ll, previous - 1e-6) << "iterations " << iters;
    previous = ll;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmMonotonicityTest, ::testing::Range(0, 12));

// Repairing a group to its observed statistics is a no-op on the complaint.
class RankerIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(RankerIdentityTest, IdentityRepairLeavesComplaintUnchanged) {
  Rng rng(GetParam());
  Table t;
  int g_col = t.AddDimensionColumn("g");
  int m_col = t.AddMeasureColumn("m");
  int groups = static_cast<int>(rng.UniformInt(2, 12));
  for (int g = 0; g < groups; ++g) {
    int rows = static_cast<int>(rng.UniformInt(2, 10));
    for (int i = 0; i < rows; ++i) {
      t.SetDim(g_col, "g" + std::to_string(g));
      t.SetMeasure(m_col, rng.Normal(10.0, 4.0));
      t.CommitRow();
    }
  }
  GroupByResult siblings = GroupBy(t, {g_col}, m_col);
  Moments total;
  for (size_t g = 0; g < siblings.num_groups(); ++g) total.Add(siblings.stats(g));

  for (AggFn agg : {AggFn::kCount, AggFn::kMean, AggFn::kSum, AggFn::kStd}) {
    Complaint complaint = Complaint::TooHigh(agg, m_col, RowFilter());
    GroupPredictions predictions(siblings.num_groups());
    for (size_t g = 0; g < siblings.num_groups(); ++g) {
      const Moments& obs = siblings.stats(g);
      predictions[g][AggFn::kCount] = obs.count;
      predictions[g][AggFn::kMean] = obs.Mean();
      predictions[g][AggFn::kStd] = obs.SampleStd();
    }
    std::vector<ScoredGroup> ranked = RankGroups(siblings, predictions, complaint);
    for (const ScoredGroup& sg : ranked) {
      EXPECT_NEAR(sg.repaired_complaint_value, total.Value(agg), 1e-6)
          << AggFnName(agg) << " identity repair moved the complaint";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankerIdentityTest, ::testing::Range(0, 10));

// Decomposed-aggregate algebra over random forests.
class AggregateAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(AggregateAlgebraTest, TotalsAndCountsConsistent) {
  Rng rng(GetParam() + 500);
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 3, 3, 4);
  DecomposedAggregates agg(&rm.fm, rm.LocalPtrs());
  for (int flat = 0; flat < rm.fm.num_attrs(); ++flat) {
    AttrId attr = rm.fm.FlatAttr(flat);
    EXPECT_EQ(agg.Total(attr) * agg.PrefixMultiplicity(attr), agg.n());
    int64_t sum = 0;
    for (int64_t node = 0; node < rm.fm.tree(attr.hierarchy).num_nodes(attr.level); ++node) {
      sum += agg.Count(attr, node);
    }
    EXPECT_EQ(sum, agg.Total(attr));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateAlgebraTest, ::testing::Range(0, 10));

// Moment algebra: delete + re-add restores the parent exactly.
TEST(MomentAlgebra, DeleteReAddRoundTrip) {
  Rng rng(9);
  Moments parent;
  std::vector<Moments> children(10);
  for (Moments& child : children) {
    int rows = static_cast<int>(rng.UniformInt(1, 20));
    for (int i = 0; i < rows; ++i) {
      double v = rng.Normal(0.0, 5.0);
      child.Observe(v);
      parent.Observe(v);
    }
  }
  for (const Moments& child : children) {
    Moments modified = parent;
    modified.Subtract(child);
    modified.Add(child);
    EXPECT_NEAR(modified.count, parent.count, 1e-9);
    EXPECT_NEAR(modified.sum, parent.sum, 1e-9);
    EXPECT_NEAR(modified.sumsq, parent.sumsq, 1e-9);
  }
}

}  // namespace
}  // namespace reptile
