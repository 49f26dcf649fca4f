// Factorised left multiplication A · X (paper Section 4.2.2, Algorithm 3).
//
// A is a dense q x n matrix (n = virtual rows of X). Each column of X is a
// block-repetitive pattern fully described by the decomposed aggregates:
// within one repetition, each node value occupies lc(node) * suffix
// consecutive rows. Prefix sums over each row of A turn every block into an
// O(1) range sum, giving total cost O(q * n) — optimal, since the input A is
// itself q x n.

#ifndef REPTILE_FMATRIX_LEFT_MULT_H_
#define REPTILE_FMATRIX_LEFT_MULT_H_

#include <vector>

#include "factor/frep.h"
#include "linalg/matrix.h"

namespace reptile {

/// Running prefix of r: prefix[i] = r[0] + ... + r[i-1] (resized to n + 1),
/// summed in row order. Its differences are the block sums the factorised
/// left multiplications read.
void RunningPrefix(const std::vector<double>& r, std::vector<double>* prefix);

/// Computes A · X, returning a dense q x m matrix.
Matrix FactorizedLeftMultiply(const FactorizedMatrix& fm, const Matrix& a);

/// Computes X^T r for a length-n vector r (one row of the general case),
/// returning an m-vector.
std::vector<double> FactorizedVecLeftMultiply(const FactorizedMatrix& fm,
                                              const std::vector<double>& r);

/// In-place form, the EM inner loop's: writes X^T r into `out` (resized to
/// m) and uses `prefix` (resized to n + 1) as scratch, so a caller that
/// keeps both buffers allocates nothing per call.
void FactorizedVecLeftMultiply(const FactorizedMatrix& fm, const std::vector<double>& r,
                               std::vector<double>* prefix, std::vector<double>* out);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_LEFT_MULT_H_
