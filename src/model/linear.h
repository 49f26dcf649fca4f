// Linear regression (ordinary least squares) — the naive model of paper
// Section 3.2 and the "Linear" baseline of Appendix K. Trainable over a
// dense matrix or a factorised matrix (gram + left multiplication only).

#ifndef REPTILE_MODEL_LINEAR_H_
#define REPTILE_MODEL_LINEAR_H_

#include <vector>

#include "factor/decomposed.h"
#include "factor/frep.h"
#include "linalg/matrix.h"

namespace reptile {

/// Fitted linear model. The caller provides the intercept as a feature
/// column (the engine always does).
struct LinearModel {
  std::vector<double> beta;
  double sigma2 = 0.0;  // MLE residual variance
  int64_t n = 0;
};

/// OLS over a dense design matrix.
LinearModel TrainLinearDense(const Matrix& x, const std::vector<double>& y,
                             double ridge = 1e-9);

/// OLS over a factorised matrix: beta = (X^T X)^-1 X^T y with the factorised
/// gram and left-multiplication operators; the residual norm uses the
/// factorised right multiplication.
LinearModel TrainLinearFactorized(const FactorizedMatrix& fm, const DecomposedAggregates& agg,
                                  const std::vector<double>& y, double ridge = 1e-9);

}  // namespace reptile

#endif  // REPTILE_MODEL_LINEAR_H_
