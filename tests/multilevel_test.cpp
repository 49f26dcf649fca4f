// Tests for model/multilevel: EM behaviour on synthetic mixed-effects data,
// the equivalence of the factorised and dense backends, and bit-exact pins
// of both backends' fits.

#include <cmath>
#include <memory>
#include <string>

#include "common/hashing.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "fmatrix/materialize.h"
#include "gtest/gtest.h"
#include "model/model_eval.h"
#include "model/multilevel.h"
#include "test_util.h"

namespace reptile {
namespace {

// Synthetic mixed-effects data: G clusters of size n_c, y = b0 + b1*x +
// u_g + eps with u_g ~ N(0, tau2).
struct MixedData {
  Matrix x;
  std::vector<double> y;
  std::vector<int64_t> cluster_begin;
  std::vector<double> u;  // true cluster effects
};

MixedData MakeMixedData(Rng* rng, int64_t clusters, int64_t per_cluster, double tau,
                        double noise) {
  MixedData data;
  int64_t n = clusters * per_cluster;
  data.x = Matrix(static_cast<size_t>(n), 2);
  data.y.resize(static_cast<size_t>(n));
  for (int64_t g = 0; g < clusters; ++g) {
    data.cluster_begin.push_back(g * per_cluster);
    // std::normal_distribution requires a positive deviation: tau = 0 means
    // no cluster effect at all, not a draw.
    data.u.push_back(tau > 0.0 ? rng->Normal(0.0, tau) : 0.0);
  }
  data.cluster_begin.push_back(n);
  for (int64_t g = 0; g < clusters; ++g) {
    for (int64_t i = 0; i < per_cluster; ++i) {
      int64_t row = g * per_cluster + i;
      double xv = rng->Normal(0.0, 1.0);
      data.x(static_cast<size_t>(row), 0) = 1.0;
      data.x(static_cast<size_t>(row), 1) = xv;
      data.y[static_cast<size_t>(row)] =
          1.0 + 2.0 * xv + data.u[static_cast<size_t>(g)] + rng->Normal(0.0, noise);
    }
  }
  return data;
}

TEST(MultiLevelDense, RecoversFixedEffects) {
  Rng rng(3);
  MixedData data = MakeMixedData(&rng, 40, 25, /*tau=*/1.5, /*noise=*/0.5);
  DenseEmBackend backend(&data.x, data.cluster_begin, /*z_cols=*/{0});
  MultiLevelModel model = TrainMultiLevel(&backend, data.y);
  EXPECT_NEAR(model.beta[0], 1.0, 0.5);
  EXPECT_NEAR(model.beta[1], 2.0, 0.05);
  // Residual variance close to noise^2, not inflated by the cluster effects.
  EXPECT_NEAR(model.sigma2, 0.25, 0.15);
  // Random-effect variance close to tau^2.
  EXPECT_NEAR(model.sigma_b(0, 0), 2.25, 1.2);
}

TEST(MultiLevelDense, RandomEffectsTrackClusterOffsets) {
  Rng rng(9);
  MixedData data = MakeMixedData(&rng, 30, 40, /*tau=*/2.0, /*noise=*/0.3);
  DenseEmBackend backend(&data.x, data.cluster_begin, {0});
  MultiLevelModel model = TrainMultiLevel(&backend, data.y);
  // Posterior cluster intercepts should correlate strongly with the truth.
  double corr_num = 0.0, su = 0.0, sb = 0.0;
  for (size_t g = 0; g < data.u.size(); ++g) {
    corr_num += data.u[g] * model.b(g, 0);
    su += data.u[g] * data.u[g];
    sb += model.b(g, 0) * model.b(g, 0);
  }
  double corr = corr_num / std::sqrt(su * sb);
  EXPECT_GT(corr, 0.9);
}

TEST(MultiLevelDense, ShrinksTowardPooledWithNoClusterEffect) {
  Rng rng(12);
  MixedData data = MakeMixedData(&rng, 30, 20, /*tau=*/0.0, /*noise=*/1.0);
  DenseEmBackend backend(&data.x, data.cluster_begin, {0});
  MultiLevelModel model = TrainMultiLevel(&backend, data.y);
  // With no true cluster variation the estimated random effects collapse.
  double max_b = 0.0;
  for (size_t g = 0; g + 1 < data.cluster_begin.size(); ++g) {
    max_b = std::max(max_b, std::fabs(model.b(g, 0)));
  }
  EXPECT_LT(max_b, 0.6);
  EXPECT_LT(model.sigma_b(0, 0), 0.3);
}

TEST(MultiLevelDense, FittedImprovesOverFixedOnly) {
  Rng rng(21);
  MixedData data = MakeMixedData(&rng, 25, 30, /*tau=*/2.0, /*noise=*/0.3);
  DenseEmBackend backend(&data.x, data.cluster_begin, {0});
  MultiLevelModel model = TrainMultiLevel(&backend, data.y);
  double rss_fitted = 0.0, rss_fixed = 0.0;
  std::vector<double> xb;
  backend.XTimes(model.beta, &xb);
  for (size_t i = 0; i < data.y.size(); ++i) {
    rss_fitted += (data.y[i] - model.fitted[i]) * (data.y[i] - model.fitted[i]);
    rss_fixed += (data.y[i] - xb[i]) * (data.y[i] - xb[i]);
  }
  EXPECT_LT(rss_fitted, 0.3 * rss_fixed);
}

// Equivalence: the factorised and dense backends run the same EM and must
// produce identical estimates on identical inputs.
class BackendEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalenceTest, FactorizedMatchesDense) {
  Rng rng(GetParam());
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  DecomposedAggregates agg(&rm.fm, rm.LocalPtrs());
  std::vector<double> y = testutil::RandomVector(&rng, rm.fm.num_rows());
  // Random-effect columns: intercept plus a random subset.
  std::vector<int> z_cols = {0};
  for (int c = 1; c < rm.fm.num_cols(); ++c) {
    if (rng.Bernoulli(0.5)) z_cols.push_back(c);
  }
  MultiLevelOptions options;
  options.em_iters = 8;

  FactorizedEmBackend fbackend(&rm.fm, &agg, z_cols);
  MultiLevelModel fmodel = TrainMultiLevel(&fbackend, y, options);

  Matrix x;
  MultiLevelModel dmodel = TrainMultiLevelDense(rm.fm, y, z_cols, options, &x);

  ASSERT_EQ(fmodel.beta.size(), dmodel.beta.size());
  for (size_t c = 0; c < fmodel.beta.size(); ++c) {
    EXPECT_NEAR(fmodel.beta[c], dmodel.beta[c], 1e-6) << "beta " << c;
  }
  EXPECT_NEAR(fmodel.sigma2, dmodel.sigma2, 1e-6);
  EXPECT_TRUE(fmodel.sigma_b.ApproxEquals(dmodel.sigma_b, 1e-6));
  ASSERT_EQ(fmodel.fitted.size(), dmodel.fitted.size());
  for (size_t i = 0; i < fmodel.fitted.size(); ++i) {
    EXPECT_NEAR(fmodel.fitted[i], dmodel.fitted[i], 1e-6) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest, ::testing::Range(0, 10));

// Bit-exact pins: FNV-1a digests of every fitted quantity. Fits feed the
// model cache, persisted snapshots and response bytes, so any change to the
// EM path must reproduce them to the last bit — a digest change here is a
// behaviour change, never noise. The digests assume IEEE doubles without
// fused multiply-add contraction (the default x86-64 build).
std::string ModelDigest(const MultiLevelModel& model) {
  Fnv1aHasher hasher;
  for (double v : model.beta) hasher.MixDouble(v);
  hasher.MixDouble(model.sigma2);
  for (double v : model.sigma_b.data()) hasher.MixDouble(v);
  for (double v : model.b.data()) hasher.MixDouble(v);
  for (double v : model.fitted) hasher.MixDouble(v);
  hasher.MixI64(model.iterations_run);
  return hasher.Hex();
}

std::string DoubleDigest(double v) {
  Fnv1aHasher hasher;
  hasher.MixDouble(v);
  return hasher.Hex();
}

// Intercept-only Z over the perfbench full-depth shape, scaled down:
// 4 hierarchies x 6 values, so 216 clusters of 6 rows.
struct SyntheticFit {
  SyntheticMatrix sm;
  std::unique_ptr<DecomposedAggregates> agg;
  std::unique_ptr<FactorizedEmBackend> backend;
  std::vector<double> y;
};

std::unique_ptr<SyntheticFit> MakeSyntheticFit() {
  auto fit = std::make_unique<SyntheticFit>();
  SyntheticOptions options;
  options.num_hierarchies = 4;
  options.attrs_per_hierarchy = 1;
  options.cardinality = 6;
  options.seed = 7;
  fit->sm = MakeSyntheticMatrix(options);
  fit->agg = std::make_unique<DecomposedAggregates>(&fit->sm.fm, fit->sm.LocalPtrs());
  fit->backend = std::make_unique<FactorizedEmBackend>(&fit->sm.fm, fit->agg.get(),
                                                       std::vector<int>{0});
  Rng rng(11);
  fit->y.resize(static_cast<size_t>(fit->sm.fm.num_rows()));
  for (double& v : fit->y) v = rng.Normal(100.0, 20.0);
  return fit;
}

TEST(MultiLevelBitExact, FactorizedInterceptOnly) {
  std::unique_ptr<SyntheticFit> fit = MakeSyntheticFit();
  ASSERT_EQ(fit->sm.fm.num_clusters(), 216);
  MultiLevelModel model = TrainMultiLevel(fit->backend.get(), fit->y);
  EXPECT_EQ(model.iterations_run, 20);
  EXPECT_EQ(ModelDigest(model), "45a3b387c919b0d6");
  EXPECT_EQ(DoubleDigest(MultiLevelLogLikelihood(fit->backend.get(), model, fit->y)),
            "43bca1d3fed4dcf2");
}

// Random single-attribute forests with BackendEquivalenceTest's random Z
// subsets: uneven clusters and (seeds 0, 2, 3) an intra column.
class MultiLevelBitExactRandom : public ::testing::TestWithParam<int> {};

TEST_P(MultiLevelBitExactRandom, FactorizedRandomZ) {
  static const char* const kDigests[] = {"7264f13bb4731cc5", "f0d3ccd7e89072e6",
                                         "eb9bf28c28a769a8", "2106b7b1b28d6777"};
  Rng rng(GetParam());
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  DecomposedAggregates agg(&rm.fm, rm.LocalPtrs());
  std::vector<double> y = testutil::RandomVector(&rng, rm.fm.num_rows());
  std::vector<int> z_cols = {0};
  for (int c = 1; c < rm.fm.num_cols(); ++c) {
    if (rng.Bernoulli(0.5)) z_cols.push_back(c);
  }
  MultiLevelOptions options;
  options.em_iters = 8;
  FactorizedEmBackend backend(&rm.fm, &agg, z_cols);
  MultiLevelModel model = TrainMultiLevel(&backend, y, options);
  EXPECT_EQ(ModelDigest(model), kDigests[GetParam()]) << "z_cols " << z_cols.size();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiLevelBitExactRandom, ::testing::Range(0, 4));

TEST(MultiLevelBitExact, DenseMixedData) {
  Rng rng(3);
  MixedData data = MakeMixedData(&rng, 40, 25, /*tau=*/1.5, /*noise=*/0.5);
  DenseEmBackend backend(&data.x, data.cluster_begin, {0, 1});
  MultiLevelModel model = TrainMultiLevel(&backend, data.y);
  EXPECT_EQ(ModelDigest(model), "2e8158d7b3ea0e19");
  EXPECT_EQ(DoubleDigest(MultiLevelLogLikelihood(&backend, model, data.y)),
            "b4e8027af984ece5");
}

TEST(MultiLevelBitExact, ToleranceStopsEarly) {
  std::unique_ptr<SyntheticFit> fit = MakeSyntheticFit();
  MultiLevelOptions options;
  options.tolerance = 1e-3;
  MultiLevelModel model = TrainMultiLevel(fit->backend.get(), fit->y, options);
  EXPECT_GT(model.iterations_run, 0);
  EXPECT_LT(model.iterations_run, options.em_iters);
  EXPECT_EQ(ModelDigest(model), "d1f21b61d16ffc8d");
}

TEST(ClusterBeginsOf, MatchesClusterStructure) {
  Rng rng(2);
  testutil::RandomMatrix rm = testutil::MakeRandomMatrix(&rng, 2);
  std::vector<int64_t> begins = ClusterBeginsOf(rm.fm);
  ASSERT_EQ(static_cast<int64_t>(begins.size()), rm.fm.num_clusters() + 1);
  EXPECT_EQ(begins.front(), 0);
  EXPECT_EQ(begins.back(), rm.fm.num_rows());
  for (size_t g = 0; g + 1 < begins.size(); ++g) {
    for (int64_t row = begins[g]; row < begins[g + 1]; ++row) {
      EXPECT_EQ(rm.fm.ClusterOfRow(row), static_cast<int64_t>(g));
    }
  }
}

}  // namespace
}  // namespace reptile
