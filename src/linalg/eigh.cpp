#include "linalg/eigh.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace.hpp"

namespace parsvd {
namespace {

/// Sum of squares of the strictly-upper off-diagonal entries.
double off_diagonal_norm(const Matrix& a) {
  double s = 0.0;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < j; ++i) s += a(i, j) * a(i, j);
  }
  return std::sqrt(2.0 * s);
}

}  // namespace

EighResult eigh(const Matrix& input, const EighOptions& opts) {
  if (opts.method == EighMethod::Tridiagonal) {
    return eigh_tridiagonal(input, opts);
  }
  PARSVD_REQUIRE(input.rows() == input.cols(), "eigh requires a square matrix");
  const Index n = input.rows();
  if (n == 0) return {Vector{}, Matrix{}};
  PARSVD_TRACE_SCOPE("linalg.eigh");

  // Validate symmetry, then work on the symmetrized copy so tiny
  // round-off asymmetries from the Gram computation can't bias rotations.
  const double scale = std::max(input.norm_max(), 1.0);
  Matrix a(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) {
      PARSVD_REQUIRE(std::fabs(input(i, j) - input(j, i)) <= 1e-8 * scale,
                     "eigh input is not symmetric");
      const double v = 0.5 * (input(i, j) + input(j, i));
      a(i, j) = v;
      a(j, i) = v;
    }
  }

  Matrix v = Matrix::identity(n);
  const double fro = std::max(a.norm_fro(), 1e-300);

  int sweep = 0;
  while (off_diagonal_norm(a) > opts.tol * fro) {
    if (++sweep > opts.max_sweeps) {
      throw ConvergenceError("Jacobi eigensolver exceeded sweep budget");
    }
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        // Classical Jacobi rotation (Golub & Van Loan §8.5.2): choose
        // c, s zeroing a(p,q) with the smaller rotation angle.
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        // A := Jᵀ A J restricted to rows/cols p, q.
        const double app = a(p, p), aqq = a(q, q);
        a(p, p) = app - t * apq;
        a(q, q) = aqq + t * apq;
        a(p, q) = 0.0;
        a(q, p) = 0.0;
        for (Index k = 0; k < n; ++k) {
          if (k == p || k == q) continue;
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(p, k) = a(k, p);
          a(k, q) = s * akp + c * akq;
          a(q, k) = a(k, q);
        }
        // Accumulate eigenvectors: V := V J.
        double* vp = v.col_data(p);
        double* vq = v.col_data(q);
        for (Index k = 0; k < n; ++k) {
          const double xp = vp[k], xq = vq[k];
          vp[k] = c * xp - s * xq;
          vq[k] = s * xp + c * xq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(),
                   [&a](Index i, Index j) { return a(i, i) > a(j, j); });

  const Index kept = (opts.rank > 0 && opts.rank < n) ? opts.rank : n;
  EighResult out;
  out.values = Vector(kept);
  out.vectors = Matrix(n, kept);
  for (Index k = 0; k < kept; ++k) {
    const Index src = order[static_cast<std::size_t>(k)];
    out.values[k] = a(src, src);
    out.vectors.set_col(k, v.col(src));
  }
  return out;
}

}  // namespace parsvd
