// Factorised left multiplication r^T X (paper Section 4.2.2, Algorithm 3).
//
// r is a dense n-vector (n = virtual rows of X). Each column of X is a
// block-repetitive pattern fully described by the decomposed aggregates:
// within one repetition, each node value occupies lc(node) * suffix
// consecutive rows. A prefix sum over r turns every block into an O(1)
// range sum, giving total cost O(n) — optimal, since the input r itself has
// n entries.
//
// Single-attribute matrices only (FactorizedMatrix::AllSingleAttribute()):
// a matrix with a multi-attribute column (Appendix H) is materialised
// (materialize.h) and fitted by the dense backend instead.

#ifndef REPTILE_FMATRIX_LEFT_MULT_H_
#define REPTILE_FMATRIX_LEFT_MULT_H_

#include <vector>

#include "factor/frep.h"

namespace reptile {

/// Running prefix of r: prefix[i] = r[0] + ... + r[i-1] (resized to n + 1),
/// summed in row order. Its differences are the block sums the factorised
/// left multiplications read.
void RunningPrefix(const std::vector<double>& r, std::vector<double>* prefix);

/// Computes X^T r for a length-n vector r, returning an m-vector.
std::vector<double> FactorizedVecLeftMultiply(const FactorizedMatrix& fm,
                                              const std::vector<double>& r);

/// In-place form, the EM inner loop's: writes X^T r into `out` (resized to
/// m) and uses `prefix` (resized to n + 1) as scratch, so a caller that
/// keeps both buffers allocates nothing per call.
void FactorizedVecLeftMultiply(const FactorizedMatrix& fm, const std::vector<double>& r,
                               std::vector<double>* prefix, std::vector<double>* out);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_LEFT_MULT_H_
