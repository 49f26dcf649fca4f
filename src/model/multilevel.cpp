#include "model/multilevel.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "fmatrix/cluster_ops.h"
#include "fmatrix/gram.h"
#include "fmatrix/left_mult.h"
#include "fmatrix/materialize.h"
#include "fmatrix/right_mult.h"
#include "linalg/solve.h"

namespace reptile {

// ---------- Factorised backend ----------

FactorizedEmBackend::FactorizedEmBackend(const FactorizedMatrix* fm,
                                         const DecomposedAggregates* agg,
                                         std::vector<int> z_cols)
    : fm_(fm), agg_(agg), z_cols_(std::move(z_cols)) {
  REPTILE_CHECK(fm != nullptr && agg != nullptr);
  if (z_cols_.empty()) {
    for (int c = 0; c < fm_->num_cols(); ++c) z_cols_.push_back(c);
  }
}

Matrix FactorizedEmBackend::Gram() const { return FactorizedGram(*fm_, *agg_); }

ClusterTable FactorizedEmBackend::BuildClusterTable() const {
  return reptile::BuildClusterTable(*fm_, z_cols_);
}

void FactorizedEmBackend::XtV(const std::vector<double>& v, std::vector<double>* prefix,
                              std::vector<double>* out) const {
  FactorizedVecLeftMultiply(*fm_, v, prefix, out);
}

void FactorizedEmBackend::XTimes(const std::vector<double>& beta,
                                 std::vector<double>* out) const {
  FactorizedVecRightMultiply(*fm_, beta, out);
}

void FactorizedEmBackend::ZtR(const ClusterTable& table, const std::vector<double>& r,
                              const std::vector<double>& r_prefix, Matrix* ztr) const {
  ClusterLeftMultiply(*fm_, table, r, r_prefix, ztr);
}

void FactorizedEmBackend::ZTimesB(const ClusterTable& table, const Matrix& b,
                                  std::vector<double>* out) const {
  ClusterRightMultiply(*fm_, table, b, out);
}

// ---------- Dense backend ----------

DenseEmBackend::DenseEmBackend(const Matrix* x, std::vector<int64_t> cluster_begin,
                               std::vector<int> z_cols)
    : x_(x), cluster_begin_(std::move(cluster_begin)), z_cols_(std::move(z_cols)) {
  REPTILE_CHECK(x != nullptr);
  REPTILE_CHECK_GE(cluster_begin_.size(), 2u);
  REPTILE_CHECK_EQ(cluster_begin_.front(), 0);
  REPTILE_CHECK_EQ(cluster_begin_.back(), static_cast<int64_t>(x->rows()));
  if (z_cols_.empty()) {
    for (size_t c = 0; c < x->cols(); ++c) z_cols_.push_back(static_cast<int>(c));
  }
}

Matrix DenseEmBackend::Gram() const { return x_->Transposed().Multiply(*x_); }

ClusterTable DenseEmBackend::BuildClusterTable() const {
  size_t q = z_cols_.size();
  ClusterTable table;
  table.cols = z_cols_;
  for (size_t i = 0; i < q; ++i) table.intra.push_back(static_cast<int>(i));
  table.row_begin = cluster_begin_;
  table.gram.assign(static_cast<size_t>(num_clusters()) * q * q, 0.0);
  for (int64_t g = 0; g < num_clusters(); ++g) {
    double* ztz = table.gram.data() + static_cast<size_t>(g) * q * q;
    for (int64_t row = cluster_begin_[g]; row < cluster_begin_[g + 1]; ++row) {
      const double* xr = x_->RowPtr(static_cast<size_t>(row));
      for (size_t i = 0; i < q; ++i) {
        double zi = xr[z_cols_[i]];
        for (size_t j = i; j < q; ++j) ztz[i * q + j] += zi * xr[z_cols_[j]];
      }
    }
    for (size_t i = 0; i < q; ++i) {
      for (size_t j = 0; j < i; ++j) ztz[i * q + j] = ztz[j * q + i];
    }
  }
  return table;
}

void DenseEmBackend::XtV(const std::vector<double>& v, std::vector<double>* /*prefix*/,
                         std::vector<double>* out) const {
  REPTILE_CHECK_EQ(v.size(), x_->rows());
  out->assign(x_->cols(), 0.0);
  for (size_t r = 0; r < x_->rows(); ++r) {
    const double* row = x_->RowPtr(r);
    double vr = v[r];
    for (size_t c = 0; c < x_->cols(); ++c) (*out)[c] += row[c] * vr;
  }
}

void DenseEmBackend::XTimes(const std::vector<double>& beta, std::vector<double>* out) const {
  REPTILE_CHECK_EQ(beta.size(), x_->cols());
  out->resize(x_->rows());
  for (size_t r = 0; r < x_->rows(); ++r) {
    const double* row = x_->RowPtr(r);
    double acc = 0.0;
    for (size_t c = 0; c < x_->cols(); ++c) acc += row[c] * beta[c];
    (*out)[r] = acc;
  }
}

void DenseEmBackend::ZtR(const ClusterTable& /*table*/, const std::vector<double>& r,
                         const std::vector<double>& /*r_prefix*/, Matrix* ztr) const {
  REPTILE_CHECK_EQ(r.size(), x_->rows());
  size_t q = z_cols_.size();
  std::fill(ztr->mutable_data().begin(), ztr->mutable_data().end(), 0.0);
  for (int64_t g = 0; g < num_clusters(); ++g) {
    double* out = ztr->RowPtr(static_cast<size_t>(g));
    for (int64_t row = cluster_begin_[g]; row < cluster_begin_[g + 1]; ++row) {
      const double* xr = x_->RowPtr(static_cast<size_t>(row));
      double rv = r[static_cast<size_t>(row)];
      for (size_t i = 0; i < q; ++i) out[i] += xr[z_cols_[i]] * rv;
    }
  }
}

void DenseEmBackend::ZTimesB(const ClusterTable& /*table*/, const Matrix& b,
                             std::vector<double>* out) const {
  REPTILE_CHECK_EQ(static_cast<int64_t>(out->size()), n());
  size_t q = z_cols_.size();
  for (int64_t g = 0; g < num_clusters(); ++g) {
    const double* bg = b.RowPtr(static_cast<size_t>(g));
    for (int64_t row = cluster_begin_[g]; row < cluster_begin_[g + 1]; ++row) {
      const double* xr = x_->RowPtr(static_cast<size_t>(row));
      double acc = 0.0;
      for (size_t i = 0; i < q; ++i) acc += xr[z_cols_[i]] * bg[i];
      (*out)[static_cast<size_t>(row)] = acc;
    }
  }
}

// ---------- EM (Appendix D) ----------

namespace {

// One fused pass over the rows after each fixed-effect update: the residual
// r = y - X beta, rss = r^T r, rzb = r^T (Z b), and r's running prefix
// (RunningPrefix's sums, which ZtR reads for inter columns). r itself is
// stored only when `r` is non-empty (Z has intra columns).
void ResidualPass(const std::vector<double>& y, const std::vector<double>& xb,
                  const std::vector<double>& zb, std::vector<double>* r,
                  std::vector<double>* prefix, double* rss, double* rzb) {
  size_t n = y.size();
  double* p = prefix->data();
  double* r_out = r->empty() ? nullptr : r->data();
  double sum_sq = 0.0;
  double sum_zb = 0.0;
  double running = 0.0;
  p[0] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double ri = y[i] - xb[i];
    sum_sq += ri * ri;
    sum_zb += ri * zb[i];
    running += ri;
    p[i + 1] = running;
    if (r_out != nullptr) r_out[i] = ri;
  }
  *rss = sum_sq;
  *rzb = sum_zb;
}

}  // namespace

MultiLevelModel TrainMultiLevel(const EmBackend* backend, const std::vector<double>& y,
                                const MultiLevelOptions& options) {
  REPTILE_CHECK(backend != nullptr);
  int64_t n = backend->n();
  REPTILE_CHECK_EQ(static_cast<int64_t>(y.size()), n);
  int m = backend->m();
  size_t q = backend->z_cols().size();
  int64_t num_clusters = backend->num_clusters();

  MultiLevelModel model;
  model.z_cols = backend->z_cols();

  // Precompute X^T X (and its inverse), X^T y and the cluster table (every
  // Z_i^T Z_i) — all reused every iteration (Appendix D "we can precompute
  // X^T X and X_i^T X_i").
  Matrix gram = backend->Gram();
  Matrix gram_ridged = gram;
  for (int i = 0; i < m; ++i) gram_ridged(i, i) += options.ridge;
  Matrix gram_inv = InverseSymmetricRidge(gram_ridged);
  const ClusterTable table = backend->BuildClusterTable();
  REPTILE_CHECK_EQ(table.num_clusters(), num_clusters);

  // The fit's n-length buffers, rewritten in place every iteration: r's
  // running prefix (also the scratch of X^T v), X beta, Z b, and r itself
  // only when Z has intra columns.
  size_t rows = y.size();
  std::vector<double> prefix(rows + 1);
  std::vector<double> xb(rows);
  std::vector<double> zb(rows, 0.0);
  std::vector<double> r(table.intra.empty() ? 0 : rows);
  std::vector<double> xty;
  std::vector<double> xtzb;
  backend->XtV(y, &prefix, &xty);

  // Initialise with OLS.
  model.beta = gram_inv.Multiply(Matrix::ColumnVector(xty)).Column(0);
  backend->XTimes(model.beta, &xb);
  double rss = 0.0;
  double rzb = 0.0;
  ResidualPass(y, xb, zb, &r, &prefix, &rss, &rzb);
  model.sigma2 = std::max(options.min_sigma2, rss / static_cast<double>(std::max<int64_t>(n, 1)));
  model.sigma_b = Matrix::Identity(q).Scale(model.sigma2);
  model.b = Matrix(static_cast<size_t>(num_clusters), q);

  // Per-cluster E-step workspace, reused across clusters and iterations.
  Matrix ztr(static_cast<size_t>(num_clusters), q);
  std::vector<double> vi_inv(q * q);
  std::vector<double> vi(q * q);
  std::vector<double> mu(q);
  LuWorkspace lu;

  std::vector<double> prev_beta = model.beta;
  for (int iter = 0; iter < options.em_iters; ++iter) {
    model.iterations_run = iter + 1;
    // --- E-step (equations 8-11): per-cluster posterior of b_i. ---
    Matrix sigma_inv = InverseSymmetricRidge(model.sigma_b, 1e-8);
    backend->ZtR(table, r, prefix, &ztr);
    Matrix sum_bbt(q, q);
    double trace_term = 0.0;
    double inv_sigma2 = 1.0 / model.sigma2;
    for (int64_t g = 0; g < num_clusters; ++g) {
      const double* ztz = table.Gram(g);
      for (size_t k = 0; k < q * q; ++k) vi_inv[k] = ztz[k] * inv_sigma2 + sigma_inv.data()[k];
      InverseSymmetricRidgeInto(vi_inv.data(), q, 1e-10, vi.data(), &lu);
      // mu_i = V_i Z_i^T r_i / sigma2
      const double* ztr_g = ztr.RowPtr(static_cast<size_t>(g));
      double* bg = model.b.RowPtr(static_cast<size_t>(g));
      for (size_t i = 0; i < q; ++i) {
        double acc = 0.0;
        for (size_t j = 0; j < q; ++j) acc += vi[i * q + j] * ztr_g[j];
        mu[i] = acc / model.sigma2;
        bg[i] = mu[i];
      }
      // E[b b^T] = V_i + mu mu^T; accumulate Sigma and the sigma2 trace term
      // Tr(Z_i^T Z_i E[b b^T]).
      for (size_t i = 0; i < q; ++i) {
        for (size_t j = 0; j < q; ++j) {
          double ebbt = vi[i * q + j] + mu[i] * mu[j];
          sum_bbt(i, j) += ebbt;
          trace_term += ztz[i * q + j] * ebbt;
        }
      }
    }

    // --- M-step (equations 12-14). ---
    backend->ZTimesB(table, model.b, &zb);
    backend->XtV(zb, &prefix, &xtzb);
    std::vector<double> rhs(static_cast<size_t>(m));
    for (int c = 0; c < m; ++c) rhs[static_cast<size_t>(c)] = xty[static_cast<size_t>(c)] - xtzb[static_cast<size_t>(c)];
    model.beta = gram_inv.Multiply(Matrix::ColumnVector(rhs)).Column(0);

    model.sigma_b = sum_bbt.Scale(1.0 / static_cast<double>(std::max<int64_t>(num_clusters, 1)));

    backend->XTimes(model.beta, &xb);
    ResidualPass(y, xb, zb, &r, &prefix, &rss, &rzb);
    model.sigma2 = (rss + trace_term - 2.0 * rzb) / static_cast<double>(std::max<int64_t>(n, 1));
    if (!(model.sigma2 > options.min_sigma2)) model.sigma2 = options.min_sigma2;

    // Early stop (ModelSpec::EmTolerance): the fixed effects have converged
    // within tolerance, so further iterations cannot change the repair
    // meaningfully. Checked after the full M-step so the model state is
    // always a complete iteration's.
    if (options.tolerance > 0.0) {
      double max_delta = 0.0;
      for (size_t i = 0; i < model.beta.size(); ++i) {
        double delta = std::abs(model.beta[i] - prev_beta[i]);
        if (delta > max_delta) max_delta = delta;
      }
      if (max_delta <= options.tolerance) break;
    }
    prev_beta = model.beta;
  }

  // Final fitted values: X beta + Z b, built in X beta's buffer.
  backend->ZTimesB(table, model.b, &zb);
  for (size_t i = 0; i < rows; ++i) xb[i] += zb[i];
  model.fitted = std::move(xb);
  return model;
}

MultiLevelModel TrainMultiLevelDense(const FactorizedMatrix& fm, const std::vector<double>& y,
                                     const std::vector<int>& z_cols,
                                     const MultiLevelOptions& options, Matrix* x_storage) {
  REPTILE_CHECK(x_storage != nullptr);
  *x_storage = MaterializeMatrix(fm);
  DenseEmBackend backend(x_storage, ClusterBeginsOf(fm), z_cols);
  return TrainMultiLevel(&backend, y, options);
}

}  // namespace reptile
