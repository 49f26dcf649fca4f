// Full materialisation of the factorised feature matrix. This is the
// exponential-cost path the baselines pay (paper Section 5.1.1) and the input
// to the dense ("Matlab/LAPACK-style") trainer; Reptile's operators never
// call it. It is also the one evaluator of multi-attribute columns
// (Appendix H): the factorised operators take single-attribute matrices
// only, so a matrix with such a column is materialised here and fitted by
// the dense backend.

#ifndef REPTILE_FMATRIX_MATERIALIZE_H_
#define REPTILE_FMATRIX_MATERIALIZE_H_

#include "factor/frep.h"
#include "linalg/matrix.h"

namespace reptile {

/// Materialises X (num_rows x num_cols). Aborts when the row count exceeds
/// `max_rows` as a guard against accidental exponential blowups.
Matrix MaterializeMatrix(const FactorizedMatrix& fm, int64_t max_rows = int64_t{1} << 26);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_MATERIALIZE_H_
