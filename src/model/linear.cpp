#include "model/linear.h"

#include "common/check.h"
#include "fmatrix/gram.h"
#include "fmatrix/left_mult.h"
#include "fmatrix/right_mult.h"
#include "linalg/solve.h"

namespace reptile {
namespace {

std::vector<double> SolveNormalEquations(Matrix gram, const std::vector<double>& xty,
                                         double ridge) {
  for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += ridge;
  Matrix inv = InverseSymmetricRidge(gram);
  Matrix beta = inv.Multiply(Matrix::ColumnVector(xty));
  return beta.Column(0);
}

}  // namespace

LinearModel TrainLinearDense(const Matrix& x, const std::vector<double>& y, double ridge) {
  REPTILE_CHECK_EQ(x.rows(), y.size());
  Matrix gram = x.Transposed().Multiply(x);
  std::vector<double> xty(x.cols(), 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < x.cols(); ++c) xty[c] += row[c] * y[r];
  }
  LinearModel model;
  model.beta = SolveNormalEquations(std::move(gram), xty, ridge);
  model.n = static_cast<int64_t>(x.rows());
  double rss = 0.0;
  for (size_t r = 0; r < x.rows(); ++r) {
    double pred = 0.0;
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < x.cols(); ++c) pred += row[c] * model.beta[c];
    double d = y[r] - pred;
    rss += d * d;
  }
  model.sigma2 = x.rows() > 0 ? rss / static_cast<double>(x.rows()) : 0.0;
  return model;
}

LinearModel TrainLinearFactorized(const FactorizedMatrix& fm, const DecomposedAggregates& agg,
                                  const std::vector<double>& y, double ridge) {
  REPTILE_CHECK_EQ(static_cast<int64_t>(y.size()), fm.num_rows());
  Matrix gram = FactorizedGram(fm, agg);
  std::vector<double> xty = FactorizedVecLeftMultiply(fm, y);
  LinearModel model;
  model.beta = SolveNormalEquations(std::move(gram), xty, ridge);
  model.n = fm.num_rows();
  std::vector<double> fitted = FactorizedVecRightMultiply(fm, model.beta);
  double rss = 0.0;
  for (size_t r = 0; r < y.size(); ++r) {
    double d = y[r] - fitted[r];
    rss += d * d;
  }
  model.sigma2 = y.empty() ? 0.0 : rss / static_cast<double>(y.size());
  return model;
}

}  // namespace reptile
