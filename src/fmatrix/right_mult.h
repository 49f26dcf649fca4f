// Factorised right multiplication X · B (paper Section 4.2.2, Algorithm 4).
//
// The output is n x p and has no redundancy to exploit, so it is
// materialised; the optimization is on the input side: vertically adjacent
// rows of X overlap except in the few attributes that changed, so each output
// row is updated incrementally from its predecessor via the row iterator.

#ifndef REPTILE_FMATRIX_RIGHT_MULT_H_
#define REPTILE_FMATRIX_RIGHT_MULT_H_

#include <vector>

#include "factor/frep.h"
#include "linalg/matrix.h"

namespace reptile {

/// Computes X · B (B is m x p), returning a dense n x p matrix.
Matrix FactorizedRightMultiply(const FactorizedMatrix& fm, const Matrix& b);

/// Computes X · beta for a coefficient vector (p = 1), returning an n-vector.
std::vector<double> FactorizedVecRightMultiply(const FactorizedMatrix& fm,
                                               const std::vector<double>& beta);

/// In-place form, the EM inner loop's: writes X · beta into `out` (resized
/// to n), reusing the caller's buffer.
void FactorizedVecRightMultiply(const FactorizedMatrix& fm, const std::vector<double>& beta,
                                std::vector<double>* out);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_RIGHT_MULT_H_
