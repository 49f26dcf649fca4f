// Multi-level (mixed-effects) linear model trained by EM (paper Section 3.2
// and Appendix D):
//
//   y_i = X_i beta + Z_i b_i + eps_i,   b_i ~ N(0, Sigma),  eps_i ~ N(0, s2 I)
//
// for clusters i = 1..G (the drill-down parent groups). Z_i is X_i restricted
// to the random-effect columns (all columns by default, Section 3.3.4).
//
// The EM loop is written once against an EmBackend interface; the factorised
// backend routes every operation through the factorised operators (the
// paper's contribution), and the dense backend runs the same algebra over a
// materialised matrix (the Matlab/LAPACK-style baseline of Section 5.1.4).

#ifndef REPTILE_MODEL_MULTILEVEL_H_
#define REPTILE_MODEL_MULTILEVEL_H_

#include <memory>
#include <vector>

#include "factor/decomposed.h"
#include "factor/frep.h"
#include "fmatrix/cluster_ops.h"
#include "linalg/matrix.h"

namespace reptile {

/// Abstract matrix-operation provider for the EM loop. All six bottleneck
/// operations of Appendix D appear here.
///
/// A fit calls Gram() and BuildClusterTable() once; the table (each
/// cluster's row range, Z_i^T Z_i, and Z's inter-column values) lives in the
/// fit's own frame. Every iteration then runs the remaining operations over
/// that table, writing into buffers the fit owns and reuses, so an iteration
/// allocates nothing proportional to n or to the number of clusters.
class EmBackend {
 public:
  virtual ~EmBackend() = default;

  virtual int64_t n() const = 0;
  virtual int m() const = 0;
  virtual int64_t num_clusters() const = 0;
  virtual const std::vector<int>& z_cols() const = 0;

  // All operations are const: a backend borrows immutable inputs (the
  // factorised matrix and aggregates, or the materialised matrix) and holds
  // no per-fit state, so one backend — and the read-only structures under
  // it — can serve fits on several worker threads at once.

  /// X^T X (precomputed once per fit).
  virtual Matrix Gram() const = 0;

  /// The per-fit cluster table over Z = X(z_cols) (built once per fit).
  virtual ClusterTable BuildClusterTable() const = 0;

  /// out = X^T v (m) for an n-vector v (left multiplication); `prefix`
  /// (n + 1) is caller-owned scratch.
  virtual void XtV(const std::vector<double>& v, std::vector<double>* prefix,
                   std::vector<double>* out) const = 0;

  /// out = X beta (n) for an m-vector beta (right multiplication).
  virtual void XTimes(const std::vector<double>& beta, std::vector<double>* out) const = 0;

  /// Row i of `ztr` (G x q) = Z_i^T r_i. Inter positions of the table read
  /// `r_prefix` (n + 1, the running prefix of r); intra positions read `r`,
  /// which may be empty when the table has none.
  virtual void ZtR(const ClusterTable& table, const std::vector<double>& r,
                   const std::vector<double>& r_prefix, Matrix* ztr) const = 0;

  /// out = Z b (n): per-cluster right multiplication with cluster
  /// coefficients (b is G x q).
  virtual void ZTimesB(const ClusterTable& table, const Matrix& b,
                       std::vector<double>* out) const = 0;
};

/// Factorised backend over a FactorizedMatrix (+ decomposed aggregates).
class FactorizedEmBackend : public EmBackend {
 public:
  FactorizedEmBackend(const FactorizedMatrix* fm, const DecomposedAggregates* agg,
                      std::vector<int> z_cols);

  int64_t n() const override { return fm_->num_rows(); }
  int m() const override { return fm_->num_cols(); }
  int64_t num_clusters() const override { return fm_->num_clusters(); }
  const std::vector<int>& z_cols() const override { return z_cols_; }
  Matrix Gram() const override;
  ClusterTable BuildClusterTable() const override;
  void XtV(const std::vector<double>& v, std::vector<double>* prefix,
           std::vector<double>* out) const override;
  void XTimes(const std::vector<double>& beta, std::vector<double>* out) const override;
  void ZtR(const ClusterTable& table, const std::vector<double>& r,
           const std::vector<double>& r_prefix, Matrix* ztr) const override;
  void ZTimesB(const ClusterTable& table, const Matrix& b,
               std::vector<double>* out) const override;

 private:
  const FactorizedMatrix* fm_;
  const DecomposedAggregates* agg_;
  std::vector<int> z_cols_;
};

/// Dense backend over a materialised matrix with contiguous cluster ranges.
/// Its table has no inter positions: every Z_i^T r_i is summed over rows.
class DenseEmBackend : public EmBackend {
 public:
  /// `cluster_begin` holds the first row of each cluster plus a final
  /// sentinel equal to n (so cluster i spans [begin[i], begin[i+1])).
  DenseEmBackend(const Matrix* x, std::vector<int64_t> cluster_begin, std::vector<int> z_cols);

  int64_t n() const override { return static_cast<int64_t>(x_->rows()); }
  int m() const override { return static_cast<int>(x_->cols()); }
  int64_t num_clusters() const override {
    return static_cast<int64_t>(cluster_begin_.size()) - 1;
  }
  const std::vector<int>& z_cols() const override { return z_cols_; }
  Matrix Gram() const override;
  ClusterTable BuildClusterTable() const override;
  void XtV(const std::vector<double>& v, std::vector<double>* prefix,
           std::vector<double>* out) const override;
  void XTimes(const std::vector<double>& beta, std::vector<double>* out) const override;
  void ZtR(const ClusterTable& table, const std::vector<double>& r,
           const std::vector<double>& r_prefix, Matrix* ztr) const override;
  void ZTimesB(const ClusterTable& table, const Matrix& b,
               std::vector<double>* out) const override;

 private:
  const Matrix* x_;
  std::vector<int64_t> cluster_begin_;
  std::vector<int> z_cols_;
};

/// Training options. em_iters = 20 matches the paper's experiments.
/// A positive `tolerance` stops EM early once an iteration moves no beta
/// coefficient by more than that amount (max |Δbeta| <= tolerance); 0 runs
/// every iteration, the bit-reproducible default.
struct MultiLevelOptions {
  int em_iters = 20;
  double tolerance = 0.0;
};

/// Fitted multi-level model.
struct MultiLevelModel {
  std::vector<double> beta;    // fixed effects (m)
  Matrix sigma_b;              // random-effect covariance (q x q)
  double sigma2 = 0.0;         // residual variance
  Matrix b;                    // posterior cluster effects (G x q)
  std::vector<int> z_cols;     // columns of X forming Z
  std::vector<double> fitted;  // X beta + Z b per row (n)
  // EM iterations actually executed: em_iters when the loop ran to its cap,
  // fewer when a positive tolerance stopped it early — the number users need
  // to see to tune em_tolerance.
  int iterations_run = 0;
};

/// Runs EM (Appendix D) for `options.em_iters` iterations. The backend is
/// read-only throughout the fit. Every sum runs in one fixed order (rows in
/// row order, clusters in cluster order, no partial sums), so a fit's bits
/// depend only on its inputs; the MultiLevelBitExact tests pin them, which
/// keeps cached and snapshotted fits valid across builds.
MultiLevelModel TrainMultiLevel(const EmBackend* backend, const std::vector<double>& y,
                                const MultiLevelOptions& options = MultiLevelOptions());

/// The dense fit (the Matlab/LAPACK-style baseline of Section 5.1.4):
/// materialises X from `fm` into `x_storage`, which the backend borrows and
/// callers may reuse for predictions, and runs TrainMultiLevel over a
/// DenseEmBackend with `fm`'s clusters (ClusterBeginsOf).
MultiLevelModel TrainMultiLevelDense(const FactorizedMatrix& fm, const std::vector<double>& y,
                                     const std::vector<int>& z_cols,
                                     const MultiLevelOptions& options, Matrix* x_storage);

}  // namespace reptile

#endif  // REPTILE_MODEL_MULTILEVEL_H_
