// Singular value decomposition front-end and backends.
//
// Two independently-implemented deterministic backends are provided:
//   * Jacobi            — QR-preconditioned one-sided Jacobi. The accurate
//                         default; computes small singular values to high
//                         relative accuracy.
//   * MethodOfSnapshots — eigendecomposition of the n x n Gram matrix AᵀA.
//                         O(m n^2) with a tiny constant; the classical POD
//                         route and the one the APMOS paper assumes when
//                         m >> n. Loses half the digits for σ near
//                         sqrt(eps)·σ_max, which tests document. With a
//                         rank k it solves the Gram eigenproblem for k
//                         pairs only and forms U = A V Σ⁻¹ for k columns.
// Having two backends lets the test suite cross-validate them against each
// other on random matrices — the strongest correctness check available
// without a reference LAPACK.
//
// The convention throughout: thin SVD A = U diag(s) Vᵀ with U (m x r),
// s descending and non-negative, V (n x r), r = min(m, n) (or the
// requested truncation). V is returned untransposed.
#pragma once

#include "linalg/eigh.hpp"
#include "linalg/matrix.hpp"

namespace parsvd {

struct SvdResult {
  Matrix u;   ///< left singular vectors, one per column
  Vector s;   ///< singular values, descending, >= 0
  Matrix v;   ///< right singular vectors, one per column (not transposed)

  /// U diag(s) Vᵀ — reconstruction used by tests and error metrics.
  Matrix reconstruct() const;
};

enum class SvdMethod {
  Jacobi,
  MethodOfSnapshots,
  GolubKahan,
};

struct SvdOptions {
  SvdMethod method = SvdMethod::Jacobi;
  /// Keep only the leading `rank` triplets; 0 = full thin SVD. The
  /// method-of-snapshots backend computes only those; the others
  /// truncate a full factorization.
  Index rank = 0;
  /// Jacobi sweep convergence threshold on normalized column coherence.
  double tol = 1e-13;
  int max_sweeps = 64;
  /// Eigensolver used by the MethodOfSnapshots backend for the Gram
  /// matrix (Tridiagonal is the faster choice for many snapshots).
  EighMethod eigh_method = EighMethod::Jacobi;
};

/// Thin SVD of a general dense matrix.
SvdResult svd(const Matrix& a, const SvdOptions& opts = {});

/// Direct entry points for the individual backends (used by tests and
/// by callers that know their matrix shape).
SvdResult svd_jacobi(const Matrix& a, const SvdOptions& opts = {});
SvdResult svd_method_of_snapshots(const Matrix& a, const SvdOptions& opts = {});
SvdResult svd_golub_kahan(const Matrix& a, const SvdOptions& opts = {});

/// Method-of-snapshots Σ and V without U (u is left empty), for callers
/// that never read the left vectors (APMOS stages 1-2). With opts.rank
/// the Gram eigenproblem itself is solved for only that many pairs.
SvdResult svd_method_of_snapshots_right(const Matrix& a,
                                        const SvdOptions& opts = {});

/// Singular values only (cheapest path; currently Jacobi-backed).
Vector singular_values(const Matrix& a);

/// Moore-Penrose pseudoinverse via the SVD; singular values below
/// rcond * s_max are treated as zero (NumPy-compatible default).
Matrix pinv(const Matrix& a, double rcond = 1e-15);

/// Deterministic sign convention applied to an SVD: for every column j of
/// U, the entry of largest magnitude is made positive (ties broken by the
/// lowest index) and V's column is flipped to match.  Serial and
/// distributed runs then produce directly comparable modes.
void fix_svd_signs(Matrix& u, Matrix& v);

/// Variant for callers that only carry U (e.g. streaming modes).
void fix_mode_signs(Matrix& u);

}  // namespace parsvd
