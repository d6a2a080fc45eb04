// Symmetric eigendecomposition: two independent backends.
//
//   * Jacobi      — cyclic Jacobi rotations. Quadratically convergent once
//                   the off-diagonal mass is small and computes small
//                   eigenvalues to high relative accuracy, which matters
//                   because singular values are their square roots.
//   * Tridiagonal — Householder tridiagonalization (blocked, LAPACK
//                   dsytrd-style) followed by implicit-shift QL for all
//                   pairs, or, for `rank` = k < n, by QL without vectors,
//                   inverse iteration for the k wanted vectors and one
//                   blocked back-transform (the LAPACK xSYEVX route).
//
// Needed by the method-of-snapshots SVD backend (eigendecomposition of the
// Gram matrix AᵀA), which is the classical POD path the APMOS paper builds
// on; APMOS keeps r1 of each rank's local modes, so its Gram solve asks for
// rank = r1 and pays for the reduction plus O(n²·r1), not a full solve.
#pragma once

#include "linalg/matrix.hpp"

namespace parsvd {

/// Result of eigh(): a = vectors * diag(values) * vectorsᵀ with
/// eigenvalues sorted in DESCENDING order and orthonormal eigenvectors
/// (with EighOptions::rank = k, the k largest pairs: values has k
/// entries and vectors is n x k).
struct EighResult {
  Vector values;
  Matrix vectors;
};

enum class EighMethod {
  /// Cyclic Jacobi rotations. Quadratically convergent, best relative
  /// accuracy for small eigenvalues; O(n³) per sweep.
  Jacobi,
  /// Householder tridiagonalization, then implicit-shift QL with vectors
  /// (all pairs) or QL for the values plus inverse iteration for the k
  /// kept vectors. The faster choice for n ≳ 100, and a
  /// cross-validation backend in tests.
  Tridiagonal,
};

struct EighOptions {
  EighMethod method = EighMethod::Jacobi;
  /// Keep only the `rank` largest eigenpairs; 0 (or >= n) = all. The
  /// Tridiagonal backend computes only those; Jacobi truncates.
  Index rank = 0;
  double tol = 1e-14;     ///< off(A) / ||A||_F convergence threshold (Jacobi)
  int max_sweeps = 64;    ///< hard sweep budget before ConvergenceError
};

/// Eigendecomposition of a symmetric matrix (symmetry is validated up to
/// a tolerance, then the strictly-lower triangle is mirrored).
EighResult eigh(const Matrix& a, const EighOptions& opts = {});

/// Direct entry point for the tridiagonalization backend.
EighResult eigh_tridiagonal(const Matrix& a, const EighOptions& opts = {});

}  // namespace parsvd
