// Approximate Partitioned Method Of Snapshots (APMOS) distributed SVD —
// Algorithm 2 of the paper (after Wang, McBee & Iliescu 2016).
//
// Each rank holds a row-block A^i (its grid points x N snapshots):
//   1. local SVD → right singular vectors V^i and values Σ^i;
//   2. truncate to r1 columns, form W^i = Ṽ^i diag(Σ̃^i);
//   3. gather W = [W^1 ... W^p] at rank 0 (N x p·r1);
//   4. SVD of W at rank 0 (optionally randomized, §3.3);
//   5. truncate to r2 modes, broadcast (X̃, Λ̃);
//   6. local global-mode slices Ũ^i_j = A^i X̃_j / Λ̃_j.
//
// r1 trades gather volume against fidelity of each rank's contribution;
// r2 trades broadcast volume against the number of recovered modes — the
// abl_truncation_sweep bench quantifies both.
#pragma once

#include "core/options.hpp"
#include "linalg/matrix.hpp"
#include "pmpi/comm.hpp"
#include "support/rng.hpp"

namespace parsvd {

struct ApmosResult {
  /// This rank's rows of the leading global left singular vectors
  /// (local_rows x k, k = min(r2, available spectrum)).
  Matrix u_local;
  /// Approximate global singular values (k), identical on every rank.
  Vector s;
  /// Loss metadata when opts.fault_tolerant was set and ranks died
  /// mid-call; default-clean otherwise. One-shot APMOS never hears from
  /// a rank that dies before its gather post, so a degraded report
  /// carries the vacuous worst-case bound (extent_known = false); the
  /// streaming driver, which records extents up front, sharpens it.
  FaultReport report;
};

/// Distributed SVD of the implicitly row-stacked matrix
/// A = [a_local⁰; a_local¹; ...]. Collective over `comm`; every rank
/// passes the same snapshot count (columns) and options.
/// `rng` is consulted only at rank 0 and only when opts.low_rank is set.
ApmosResult apmos_svd(pmpi::Communicator& comm, const Matrix& a_local,
                      const ApmosOptions& opts, Rng* rng = nullptr);

/// Stage 1-2 helper, exposed for tests: leading right singular vectors
/// (n x k) and singular values (k), k = min(r1, min(m, n)).
/// Mirrors PyParSVD's generate_right_vectors. With the method of
/// snapshots only k Gram eigenpairs are solved for and no U is formed.
std::pair<Matrix, Vector> generate_right_vectors(
    const Matrix& a, Index r1, SvdMethod method,
    EighMethod eigh_method = EighMethod::Jacobi);

}  // namespace parsvd
