// Factorised gram matrix X^T X (paper Section 4.2.2, Algorithm 2).
//
// Each output cell quantifies the duplication of a column pair through the
// decomposed aggregates instead of enumerating rows:
//
//   same attribute     : (n / L_k) * sum_node lc(node) f(v) g(v)
//   same hierarchy a<b : (n / L_k) * sum_{node at b} lc(node) f(anc) g(v)
//   cross hierarchy    : (n / (L_k L_k')) * WS_f * WS_g
//
// where lc is the subtree leaf count (local COUNT), L_k the tree's leaf
// total, and WS the leaf-weighted column sum. The cross-hierarchy case is the
// cartesian-product optimization: COF across hierarchies is never
// materialised.

#ifndef REPTILE_FMATRIX_GRAM_H_
#define REPTILE_FMATRIX_GRAM_H_

#include "factor/decomposed.h"
#include "factor/frep.h"
#include "linalg/matrix.h"

namespace reptile {

/// Computes X^T X (m x m). Requires local aggregates for each tree (for the
/// same-hierarchy COF/ancestor tables). Columns involving multi-attribute
/// features are computed through a single row-enumeration pass (Appendix H
/// hybrid path); all other cells use the closed-form aggregates.
Matrix FactorizedGram(const FactorizedMatrix& fm, const DecomposedAggregates& agg);

/// Leaf-weighted column sum WS = sum_node lc(node) * f(value(node)) for a
/// single-attribute column: the per-column factor of FactorizedGram's
/// cross-hierarchy cells. Declared here so its unit test can check it
/// against the definition; FactorizedGram is its only caller.
double WeightedColumnSum(const FactorizedMatrix& fm, int column);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_GRAM_H_
