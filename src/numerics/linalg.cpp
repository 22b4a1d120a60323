#include "numerics/linalg.hpp"

#include <cmath>
#include <limits>

namespace prm::num {

bool cholesky_into(const Matrix& a, Matrix* l) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky_into: matrix must be square");
  }
  const std::size_t n = a.rows();
  l->resize(n, n);
  Matrix& f = *l;
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= f(j, k) * f(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    f(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= f(i, k) * f(j, k);
      f(i, j) = s / f(j, j);
    }
  }
  return true;
}

void cholesky_solve_into(const Matrix& l, const Vector& b, Vector* y, Vector* x) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("cholesky_solve_into: size mismatch");
  // Forward substitution L y = b.
  y->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * (*y)[k];
    (*y)[i] = s / l(i, i);
  }
  // Back substitution L^T x = y.
  x->resize(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = (*y)[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * (*x)[k];
    (*x)[ii] = s / l(ii, ii);
  }
}

QrResult qr_decompose(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) throw std::invalid_argument("qr_decompose: requires rows >= cols");
  QrResult res;
  res.qr = a;
  res.beta.assign(n, 0.0);
  res.full_rank = true;
  Matrix& qr = res.qr;

  for (std::size_t k = 0; k < n; ++k) {
    // Householder reflector for column k, rows k..m-1.
    double nrm = 0.0;
    for (std::size_t i = k; i < m; ++i) nrm = std::hypot(nrm, qr(i, k));
    if (nrm == 0.0) {
      res.full_rank = false;
      continue;
    }
    if (qr(k, k) < 0.0) nrm = -nrm;
    for (std::size_t i = k; i < m; ++i) qr(i, k) /= nrm;
    qr(k, k) += 1.0;
    res.beta[k] = nrm;  // R(k,k) = -nrm after reflection; store magnitude.

    // Apply to remaining columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += qr(i, k) * qr(i, j);
      s = -s / qr(k, k);
      for (std::size_t i = k; i < m; ++i) qr(i, j) += s * qr(i, k);
    }
  }
  // Rank check on R diagonal magnitudes.
  double max_diag = 0.0;
  for (std::size_t k = 0; k < n; ++k) max_diag = std::max(max_diag, std::fabs(res.beta[k]));
  const double tol = max_diag * 1e-12;
  for (std::size_t k = 0; k < n; ++k) {
    if (std::fabs(res.beta[k]) <= tol) res.full_rank = false;
  }
  return res;
}

std::optional<Vector> qr_solve(const Matrix& a, const Vector& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (b.size() != m) throw std::invalid_argument("qr_solve: size mismatch");
  QrResult f = qr_decompose(a);
  if (!f.full_rank) return std::nullopt;
  const Matrix& qr = f.qr;

  // y = Q^T b, applying reflectors in order.
  Vector y = b;
  for (std::size_t k = 0; k < n; ++k) {
    if (qr(k, k) == 0.0) continue;
    double s = 0.0;
    for (std::size_t i = k; i < m; ++i) s += qr(i, k) * y[i];
    s = -s / qr(k, k);
    for (std::size_t i = k; i < m; ++i) y[i] += s * qr(i, k);
  }
  // Back substitution R x = y; R(k,k) = -beta[k], R(k,j) = qr(k,j) for j>k.
  Vector x(n);
  for (std::size_t kk = n; kk-- > 0;) {
    double s = y[kk];
    for (std::size_t j = kk + 1; j < n; ++j) s -= qr(kk, j) * x[j];
    x[kk] = s / -f.beta[kk];
  }
  return x;
}

LuResult lu_decompose(const Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("lu_decompose: matrix must be square");
  const std::size_t n = a.rows();
  LuResult res;
  res.lu = a;
  res.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.perm[i] = i;
  res.sign = 1.0;
  Matrix& lu = res.lu;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t p = k;
    double best = std::fabs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best == 0.0 || !std::isfinite(best)) {
      res.singular = true;
      return res;
    }
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(p, c), lu(k, c));
      std::swap(res.perm[p], res.perm[k]);
      res.sign = -res.sign;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      lu(i, k) /= lu(k, k);
      const double lik = lu(i, k);
      for (std::size_t c = k + 1; c < n; ++c) lu(i, c) -= lik * lu(k, c);
    }
  }
  res.singular = false;
  return res;
}

Vector lu_solve(const LuResult& f, const Vector& b) {
  if (f.singular) throw std::invalid_argument("lu_solve: singular factorization");
  const std::size_t n = f.lu.rows();
  if (b.size() != n) throw std::invalid_argument("lu_solve: size mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[f.perm[i]];
  // Forward: L y = Pb (L unit lower).
  for (std::size_t i = 1; i < n; ++i) {
    double s = x[i];
    for (std::size_t k = 0; k < i; ++k) s -= f.lu(i, k) * x[k];
    x[i] = s;
  }
  // Back: U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= f.lu(ii, k) * x[k];
    x[ii] = s / f.lu(ii, ii);
  }
  return x;
}

std::optional<Matrix> inverse(const Matrix& a) {
  LuResult f = lu_decompose(a);
  if (f.singular) return std::nullopt;
  const std::size_t n = a.rows();
  Matrix inv(n, n);
  Vector e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    Vector x = lu_solve(f, e);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = x[r];
    e[c] = 0.0;
  }
  return inv;
}

double determinant(const Matrix& a) {
  LuResult f = lu_decompose(a);
  if (f.singular) return 0.0;
  double det = f.sign;
  for (std::size_t i = 0; i < a.rows(); ++i) det *= f.lu(i, i);
  return det;
}

namespace {
double norm_1(const Matrix& a) {
  double best = 0.0;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    double s = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) s += std::fabs(a(r, c));
    best = std::max(best, s);
  }
  return best;
}
}  // namespace

double condition_1norm(const Matrix& a) {
  std::optional<Matrix> inv = inverse(a);
  if (!inv) return std::numeric_limits<double>::infinity();
  return norm_1(a) * norm_1(*inv);
}

}  // namespace prm::num
