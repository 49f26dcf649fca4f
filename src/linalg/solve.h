// Linear solvers used by model training: LU with partial pivoting for general
// systems, Cholesky for symmetric positive-definite systems, plus inverse and
// log-determinant helpers. Sizes are small (number of model features), so
// O(n^3) dense algorithms are appropriate.

#ifndef REPTILE_LINALG_SOLVE_H_
#define REPTILE_LINALG_SOLVE_H_

#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace reptile {

/// Solves A x = b by LU decomposition with partial pivoting.
/// Returns std::nullopt when A is (numerically) singular.
std::optional<Matrix> SolveLinearSystem(const Matrix& a, const Matrix& b);

/// Inverse via LU; std::nullopt when singular.
std::optional<Matrix> Inverse(const Matrix& a);

/// Inverse of a symmetric matrix with a ridge fallback: if inversion fails,
/// retries with successively larger diagonal regularization. Never fails for
/// finite input (the ridge eventually dominates).
Matrix InverseSymmetricRidge(const Matrix& a, double initial_ridge = 1e-10);

/// Scratch of the LU core, sized on first use and reused after, so a caller
/// inverting many small systems (one per EM cluster) allocates once.
struct LuWorkspace {
  std::vector<double> lu;
  std::vector<size_t> perm;
  std::vector<double> y;
  std::vector<double> regularized;
};

/// InverseSymmetricRidge over raw row-major n x n storage, writing `out`
/// (n x n): the same LU core, ridge loop and bits, and no allocation once
/// `ws` is sized.
void InverseSymmetricRidgeInto(const double* a, size_t n, double initial_ridge, double* out,
                               LuWorkspace* ws);

/// Cholesky factor L (lower-triangular, A = L L^T) of a symmetric
/// positive-definite matrix; std::nullopt when A is not PD.
std::optional<Matrix> Cholesky(const Matrix& a);

/// Log-determinant of a symmetric positive-definite matrix via Cholesky;
/// std::nullopt when A is not PD.
std::optional<double> LogDetSpd(const Matrix& a);

/// Log of |det(A)| via LU for a general square matrix; std::nullopt when
/// singular.
std::optional<double> LogAbsDet(const Matrix& a);

}  // namespace reptile

#endif  // REPTILE_LINALG_SOLVE_H_
