// Tests for model/model_eval: log-likelihoods and AIC orderings (the
// Appendix K methodology: lower AIC = better model; DeltaAIC > 10 means
// substantially better).

#include "common/rng.h"
#include "gtest/gtest.h"
#include "model/linear.h"
#include "model/model_eval.h"
#include "model/multilevel.h"

namespace reptile {
namespace {

struct MixedData {
  Matrix x;
  std::vector<double> y;
  std::vector<int64_t> cluster_begin;
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
    double u = tau > 0.0 ? rng->Normal(0.0, tau) : 0.0;
    for (int64_t i = 0; i < per_cluster; ++i) {
      int64_t row = g * per_cluster + i;
      double xv = rng->Normal(0.0, 1.0);
      data.x(static_cast<size_t>(row), 0) = 1.0;
      data.x(static_cast<size_t>(row), 1) = xv;
      data.y[static_cast<size_t>(row)] = 1.0 + 2.0 * xv + u + rng->Normal(0.0, noise);
    }
  }
  data.cluster_begin.push_back(n);
  return data;
}

TEST(LinearAic, PenalisesExtraParameters) {
  LinearModel small;
  small.beta = {1.0, 2.0};
  small.sigma2 = 1.0;
  LinearModel big;
  big.beta = {1.0, 2.0, 0.0, 0.0};
  big.sigma2 = 1.0;  // same fit, more parameters
  EXPECT_LT(LinearAic(small, 100), LinearAic(big, 100));
}

TEST(LinearLogLik, MatchesClosedForm) {
  LinearModel model;
  model.beta = {0.0};
  model.sigma2 = 1.0;
  // -n/2 (log(2pi) + log(1) + 1)
  EXPECT_NEAR(LinearLogLikelihood(model, 10), -0.5 * 10 * (std::log(2 * M_PI) + 1.0), 1e-9);
}

TEST(MultiLevelAic, PrefersMultiLevelOnClusteredData) {
  Rng rng(31);
  MixedData data = MakeMixedData(&rng, 40, 25, /*tau=*/2.0, /*noise=*/0.5);
  // Linear fit.
  LinearModel linear = TrainLinearDense(data.x, data.y);
  double linear_aic = LinearAic(linear, static_cast<int64_t>(data.y.size()));
  // Multi-level fit.
  DenseEmBackend backend(&data.x, data.cluster_begin, {0});
  MultiLevelModel ml = TrainMultiLevel(&backend, data.y);
  double ml_aic = MultiLevelAic(&backend, ml, data.y);
  // Strongly clustered data: the multi-level model wins by far more than the
  // DeltaAIC = 10 rule of thumb.
  EXPECT_LT(ml_aic, linear_aic - 10.0);
}

TEST(MultiLevelAic, NoAdvantageWithoutClusterStructure) {
  Rng rng(37);
  MixedData data = MakeMixedData(&rng, 40, 25, /*tau=*/0.0, /*noise=*/1.0);
  LinearModel linear = TrainLinearDense(data.x, data.y);
  double linear_aic = LinearAic(linear, static_cast<int64_t>(data.y.size()));
  DenseEmBackend backend(&data.x, data.cluster_begin, {0});
  MultiLevelModel ml = TrainMultiLevel(&backend, data.y);
  double ml_aic = MultiLevelAic(&backend, ml, data.y);
  // Without cluster effects the models are comparable; the multi-level AIC
  // must not be dramatically better.
  EXPECT_GT(ml_aic, linear_aic - 10.0);
}

TEST(MultiLevelLogLik, MarginalLikelihoodIsFiniteAndOrdered) {
  Rng rng(41);
  MixedData data = MakeMixedData(&rng, 20, 15, 1.0, 0.5);
  DenseEmBackend backend(&data.x, data.cluster_begin, {0});
  MultiLevelModel model = TrainMultiLevel(&backend, data.y);
  double ll = MultiLevelLogLikelihood(&backend, model, data.y);
  EXPECT_TRUE(std::isfinite(ll));
  // Corrupting beta should lower the likelihood.
  MultiLevelModel worse = model;
  worse.beta[1] += 5.0;
  EXPECT_LT(MultiLevelLogLikelihood(&backend, worse, data.y), ll);
}

}  // namespace
}  // namespace reptile
