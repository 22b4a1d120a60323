// Direct solvers for the small dense systems that arise in least-squares
// fitting: Cholesky (for SPD normal equations), Householder QR (for
// rectangular least squares without forming the normal equations), and
// partially-pivoted LU (inverses for the parameter covariance, determinants).
#pragma once

#include <optional>

#include "numerics/matrix.hpp"

namespace prm::num {

/// Cholesky factorization A = L L^T of a symmetric positive definite matrix
/// (only its lower triangle is read) for the allocation-free fit hot path:
/// the caller owns the factor, solution and scratch buffers
/// (opt::FitWorkspace) and reuses them across iterations.
///
/// Factor SPD `a` into caller-owned `l` (reshaped in place). Returns false —
/// with `l` contents unspecified — when `a` is not numerically positive
/// definite, so optimizers can react by increasing damping.
bool cholesky_into(const Matrix& a, Matrix* l);

/// Solve L L^T x = b given a factor from cholesky_into, using `y` as
/// forward-substitution scratch. `x` and `y` are resized in place; `b` must
/// not alias either.
void cholesky_solve_into(const Matrix& l, const Vector& b, Vector* y, Vector* x);

/// Householder QR factorization of an m x n matrix with m >= n.
struct QrResult {
  Matrix qr;       ///< Packed factor: R in the upper triangle, reflectors below.
  Vector beta;     ///< Householder scalars.
  bool full_rank = false;
};

QrResult qr_decompose(const Matrix& a);

/// Minimum-norm least squares solution of min ||A x - b||_2 via QR.
/// Returns nullopt when A is numerically rank deficient.
std::optional<Vector> qr_solve(const Matrix& a, const Vector& b);

/// LU with partial pivoting for square systems.
struct LuResult {
  Matrix lu;                 ///< Packed L (unit diag, below) and U (above).
  std::vector<std::size_t> perm;  ///< Row permutation.
  bool singular = true;
  double sign = 1.0;         ///< Permutation sign, for determinants.
};

LuResult lu_decompose(const Matrix& a);
Vector lu_solve(const LuResult& lu, const Vector& b);

/// Inverse of a square matrix via LU; nullopt when singular.
std::optional<Matrix> inverse(const Matrix& a);

/// Determinant via LU.
double determinant(const Matrix& a);

/// Crude 1-norm condition estimate ||A||_1 * ||A^-1||_1 (exact inverse).
/// Returns +inf for singular matrices.
double condition_1norm(const Matrix& a);

}  // namespace prm::num
