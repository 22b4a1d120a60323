#include "numerics/linalg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

namespace prm::num {
namespace {

Matrix spd3() {
  // A = B^T B + I for B full rank -> SPD.
  return Matrix{{4.0, 1.0, 0.5}, {1.0, 3.0, 0.25}, {0.5, 0.25, 2.0}};
}

// Solve the SPD system A x = b through the hot-path Cholesky forms.
std::optional<Vector> solve_spd(const Matrix& a, const Vector& b) {
  Matrix l;
  if (!cholesky_into(a, &l)) return std::nullopt;
  Vector y;
  Vector x;
  cholesky_solve_into(l, b, &y, &x);
  return x;
}

TEST(Cholesky, FactorsAndSolvesSpdSystem) {
  const Matrix a = spd3();
  const Vector x_true{1.0, -2.0, 3.0};
  const Vector b = a * x_true;
  const auto x = solve_spd(a, b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-12);
}

TEST(Cholesky, FactorReconstructsMatrix) {
  const Matrix a = spd3();
  Matrix l;
  ASSERT_TRUE(cholesky_into(a, &l));
  // Only the lower triangle of the factor is defined.
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      double llt = 0.0;
      for (std::size_t k = 0; k <= std::min(r, c); ++k) llt += l(r, k) * l(c, k);
      EXPECT_NEAR(llt, a(r, c), 1e-12);
    }
  }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  Matrix l;
  EXPECT_FALSE(cholesky_into(a, &l));
  EXPECT_FALSE(solve_spd(a, {1.0, 1.0}).has_value());
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix l;
  EXPECT_THROW(cholesky_into(Matrix(2, 3), &l), std::invalid_argument);
}

TEST(Qr, SolvesOverdeterminedLeastSquaresExactly) {
  // Fit y = 2 + 3t on an exact line: residual zero, coefficients exact.
  Matrix a(5, 2);
  Vector b(5);
  for (int i = 0; i < 5; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = i;
    b[i] = 2.0 + 3.0 * i;
  }
  const auto x = qr_solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 2.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Qr, MatchesNormalEquationsOnNoisyData) {
  Matrix a(6, 2);
  Vector b{1.1, 1.9, 3.2, 3.8, 5.1, 5.9};
  for (int i = 0; i < 6; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = i;
  }
  const auto x_qr = qr_solve(a, b);
  const auto x_ne = solve_spd(gram(a), at_times(a, b));
  ASSERT_TRUE(x_qr.has_value());
  ASSERT_TRUE(x_ne.has_value());
  EXPECT_NEAR((*x_qr)[0], (*x_ne)[0], 1e-10);
  EXPECT_NEAR((*x_qr)[1], (*x_ne)[1], 1e-10);
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a(4, 2);
  for (int i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // second column is a multiple of the first
  }
  EXPECT_FALSE(qr_solve(a, {1.0, 2.0, 3.0, 4.0}).has_value());
}

TEST(Qr, RejectsUnderdetermined) {
  EXPECT_THROW(qr_decompose(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, SolvesGeneralSquareSystem) {
  const Matrix a{{0.0, 2.0, 1.0}, {1.0, -2.0, -3.0}, {-1.0, 1.0, 2.0}};
  const Vector x_true{2.0, -1.0, 3.0};
  const LuResult f = lu_decompose(a);
  ASSERT_FALSE(f.singular);
  const Vector x = lu_solve(f, a * x_true);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Lu, DetectsSingular) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_TRUE(lu_decompose(a).singular);
  EXPECT_FALSE(inverse(a).has_value());
  EXPECT_DOUBLE_EQ(determinant(a), 0.0);
}

TEST(Lu, Determinant) {
  const Matrix a{{2.0, 0.0}, {1.0, 3.0}};
  EXPECT_NEAR(determinant(a), 6.0, 1e-14);
  // Pivoting flips sign consistently.
  const Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(determinant(b), -1.0, 1e-14);
}

TEST(Lu, InverseRoundTrip) {
  const Matrix a{{3.0, 1.0}, {2.0, 5.0}};
  const auto inv = inverse(a);
  ASSERT_TRUE(inv.has_value());
  const Matrix prod = a * *inv;
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-13);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-13);
  EXPECT_NEAR(prod(1, 0), 0.0, 1e-13);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-13);
}

TEST(Condition, IdentityIsOne) {
  EXPECT_NEAR(condition_1norm(Matrix::identity(4)), 1.0, 1e-12);
}

TEST(Condition, SingularIsInfinite) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_TRUE(std::isinf(condition_1norm(a)));
}

TEST(Condition, IllConditionedIsLarge) {
  const Matrix a{{1.0, 1.0}, {1.0, 1.0 + 1e-10}};
  EXPECT_GT(condition_1norm(a), 1e9);
}

}  // namespace
}  // namespace prm::num
