#include "linalg/solve.h"

#include <cmath>

namespace reptile {
namespace {

// LU decomposition with partial pivoting, in place over the row-major n x n
// matrix `a`. Returns false when a pivot underflows (singular matrix). Every
// solver in this file runs on this one core.
bool LuDecompose(double* a, size_t n, size_t* perm, int* sign) {
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  *sign = 1;
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    double best = std::fabs(a[col * n + col]);
    for (size_t r = col + 1; r < n; ++r) {
      double v = std::fabs(a[r * n + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a[pivot * n + c], a[col * n + c]);
      std::swap(perm[pivot], perm[col]);
      *sign = -*sign;
    }
    double inv_pivot = 1.0 / a[col * n + col];
    for (size_t r = col + 1; r < n; ++r) {
      double factor = a[r * n + col] * inv_pivot;
      a[r * n + col] = factor;
      if (factor == 0.0) continue;
      for (size_t c = col + 1; c < n; ++c) {
        a[r * n + c] -= factor * a[col * n + c];
      }
    }
  }
  return true;
}

// Forward then back substitution for one right-hand-side column: `rhs(i)`
// reads row i of the unpermuted right-hand side, `y` is n scratch, and x is
// written at x[i * stride].
template <typename Rhs>
void LuSubstitute(const double* lu, const size_t* perm, size_t n, const Rhs& rhs, double* y,
                  double* x, size_t stride) {
  for (size_t i = 0; i < n; ++i) {
    double sum = rhs(perm[i]);
    for (size_t j = 0; j < i; ++j) sum -= lu[i * n + j] * y[j];
    y[i] = sum;
  }
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = y[i];
    for (size_t j = i + 1; j < n; ++j) sum -= lu[i * n + j] * x[j * stride];
    x[i * stride] = sum / lu[i * n + i];
  }
}

// Inverse of the row-major n x n matrix `a` into `out` (n x n); false when a
// pivot underflows (singular).
bool InverseInto(const double* a, size_t n, double* out, LuWorkspace* ws) {
  ws->lu.assign(a, a + n * n);
  ws->perm.resize(n);
  ws->y.resize(n);
  int sign = 0;
  if (!LuDecompose(ws->lu.data(), n, ws->perm.data(), &sign)) return false;
  // Right-hand side = the identity, read in place rather than built.
  for (size_t col = 0; col < n; ++col) {
    LuSubstitute(ws->lu.data(), ws->perm.data(), n,
                 [col](size_t row) { return row == col ? 1.0 : 0.0; }, ws->y.data(), out + col,
                 n);
  }
  return true;
}

}  // namespace

std::optional<Matrix> SolveLinearSystem(const Matrix& a, const Matrix& b) {
  REPTILE_CHECK_EQ(a.rows(), a.cols());
  REPTILE_CHECK_EQ(a.rows(), b.rows());
  size_t n = a.rows();
  Matrix lu = a;
  std::vector<size_t> perm(n);
  int sign = 0;
  if (!LuDecompose(lu.mutable_data().data(), n, perm.data(), &sign)) return std::nullopt;

  Matrix x(n, b.cols());
  std::vector<double> y(n);
  for (size_t col = 0; col < b.cols(); ++col) {
    LuSubstitute(lu.data().data(), perm.data(), n, [&](size_t row) { return b(row, col); },
                 y.data(), x.mutable_data().data() + col, b.cols());
  }
  return x;
}

std::optional<Matrix> Inverse(const Matrix& a) {
  REPTILE_CHECK_EQ(a.rows(), a.cols());
  Matrix out(a.rows(), a.rows());
  LuWorkspace ws;
  if (!InverseInto(a.data().data(), a.rows(), out.mutable_data().data(), &ws)) {
    return std::nullopt;
  }
  return out;
}

Matrix InverseSymmetricRidge(const Matrix& a, double initial_ridge) {
  REPTILE_CHECK_EQ(a.rows(), a.cols());
  Matrix out(a.rows(), a.rows());
  LuWorkspace ws;
  InverseSymmetricRidgeInto(a.data().data(), a.rows(), initial_ridge,
                            out.mutable_data().data(), &ws);
  return out;
}

void InverseSymmetricRidgeInto(const double* a, size_t n, double initial_ridge, double* out,
                               LuWorkspace* ws) {
  if (InverseInto(a, n, out, ws)) return;
  double ridge = initial_ridge;
  ws->regularized.assign(a, a + n * n);
  bool inverted = false;
  while (!inverted) {
    for (size_t i = 0; i < n; ++i) ws->regularized[i * n + i] = a[i * n + i] + ridge;
    inverted = InverseInto(ws->regularized.data(), n, out, ws);
    ridge *= 10.0;
    REPTILE_CHECK_LT(ridge, 1e30) << "InverseSymmetricRidge: non-finite input?";
  }
}

std::optional<Matrix> Cholesky(const Matrix& a) {
  REPTILE_CHECK_EQ(a.rows(), a.cols());
  size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) return std::nullopt;
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

std::optional<double> LogDetSpd(const Matrix& a) {
  std::optional<Matrix> l = Cholesky(a);
  if (!l.has_value()) return std::nullopt;
  double log_det = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) log_det += std::log((*l)(i, i));
  return 2.0 * log_det;
}

std::optional<double> LogAbsDet(const Matrix& a) {
  REPTILE_CHECK_EQ(a.rows(), a.cols());
  Matrix lu = a;
  std::vector<size_t> perm(a.rows());
  int sign = 0;
  if (!LuDecompose(lu.mutable_data().data(), a.rows(), perm.data(), &sign)) return std::nullopt;
  double log_det = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) log_det += std::log(std::fabs(lu(i, i)));
  return log_det;
}

}  // namespace reptile
