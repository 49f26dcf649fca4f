// Factorised right multiplication X · beta (paper Section 4.2.2, Algorithm 4).
//
// The output is an n-vector and has no redundancy to exploit, so it is
// materialised; the optimization is on the input side: X · beta decomposes
// into per-tree leaf contributions combined by nested repetition, so each
// output entry costs about one addition, independent of the number of
// columns.
//
// Single-attribute matrices only (FactorizedMatrix::AllSingleAttribute()):
// a matrix with a multi-attribute column (Appendix H) is materialised
// (materialize.h) and fitted by the dense backend instead.

#ifndef REPTILE_FMATRIX_RIGHT_MULT_H_
#define REPTILE_FMATRIX_RIGHT_MULT_H_

#include <vector>

#include "factor/frep.h"

namespace reptile {

/// Computes X · beta for a coefficient vector, returning an n-vector.
std::vector<double> FactorizedVecRightMultiply(const FactorizedMatrix& fm,
                                               const std::vector<double>& beta);

/// In-place form, the EM inner loop's: writes X · beta into `out` (resized
/// to n), reusing the caller's buffer.
void FactorizedVecRightMultiply(const FactorizedMatrix& fm, const std::vector<double>& beta,
                                std::vector<double>* out);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_RIGHT_MULT_H_
