#include "model/model_eval.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "fmatrix/left_mult.h"
#include "linalg/solve.h"

namespace reptile {
namespace {

constexpr double kLog2Pi = 1.8378770664093453;

}  // namespace

double LinearLogLikelihood(const LinearModel& model, int64_t n) {
  double sigma2 = std::max(model.sigma2, 1e-12);
  return -0.5 * static_cast<double>(n) * (kLog2Pi + std::log(sigma2) + 1.0);
}

double LinearAic(const LinearModel& model, int64_t n) {
  double k = static_cast<double>(model.beta.size()) + 1.0;
  return 2.0 * k - 2.0 * LinearLogLikelihood(model, n);
}

double MultiLevelLogLikelihood(const EmBackend* backend, const MultiLevelModel& model,
                               const std::vector<double>& y) {
  REPTILE_CHECK(backend != nullptr);
  size_t q = model.z_cols.size();
  double sigma2 = std::max(model.sigma2, 1e-12);

  // Fixed-effect residual, its running prefix, and every cluster's
  // Z_i^T r_i over the fit's cluster table.
  ClusterTable table = backend->BuildClusterTable();
  std::vector<double> r;
  backend->XTimes(model.beta, &r);
  for (size_t i = 0; i < y.size(); ++i) r[i] = y[i] - r[i];
  std::vector<double> prefix;
  RunningPrefix(r, &prefix);
  Matrix ztr_all(static_cast<size_t>(table.num_clusters()), q);
  backend->ZtR(table, r, prefix, &ztr_all);

  Matrix sigma_inv = InverseSymmetricRidge(model.sigma_b, 1e-10);
  Matrix ztz(q, q);
  double log_lik = 0.0;
  for (int64_t g = 0; g < table.num_clusters(); ++g) {
    int64_t begin = table.row_begin[static_cast<size_t>(g)];
    int64_t size = table.row_begin[static_cast<size_t>(g) + 1] - begin;
    double rr = 0.0;
    for (int64_t i = 0; i < size; ++i) {
      double v = r[static_cast<size_t>(begin + i)];
      rr += v * v;
    }
    std::copy(table.Gram(g), table.Gram(g) + q * q, ztz.mutable_data().begin());
    const double* ztr = ztr_all.RowPtr(static_cast<size_t>(g));

    // log det(sigma2 I + Z Sigma Z^T)
    //   = n_i log sigma2 + log det(I_q + Sigma Z^T Z / sigma2).
    Matrix inner = Matrix::Identity(q).Add(model.sigma_b.Multiply(ztz).Scale(1.0 / sigma2));
    double log_det_inner = LogAbsDet(inner).value_or(0.0);
    double log_det = static_cast<double>(size) * std::log(sigma2) + log_det_inner;

    // Quadratic form via Woodbury:
    //   r^T V^-1 r = (r^T r - ztr^T (sigma2 Sigma^-1 + Z^T Z)^-1 ztr) / sigma2.
    Matrix core = sigma_inv.Scale(sigma2).Add(ztz);
    Matrix core_inv = InverseSymmetricRidge(core, 1e-10);
    double correction = 0.0;
    for (size_t i = 0; i < q; ++i) {
      for (size_t j = 0; j < q; ++j) correction += ztr[i] * core_inv(i, j) * ztr[j];
    }
    double quad = (rr - correction) / sigma2;

    log_lik += -0.5 * (static_cast<double>(size) * kLog2Pi + log_det + quad);
  }
  return log_lik;
}

double MultiLevelAic(const EmBackend* backend, const MultiLevelModel& model,
                     const std::vector<double>& y) {
  double q = static_cast<double>(model.z_cols.size());
  double k = static_cast<double>(model.beta.size()) + q * (q + 1.0) / 2.0 + 1.0;
  return 2.0 * k - 2.0 * MultiLevelLogLikelihood(backend, model, y);
}

}  // namespace reptile
