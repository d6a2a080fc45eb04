// Distributed tall-skinny QR (TSQR).
//
// The streaming update (Algorithm 1, step 1) needs the QR of a tall
// matrix whose rows are partitioned across ranks.  Two variants:
//
//   Direct (Benson, Gleich & Demmel 2013; the one PyParSVD implements in
//   Listing 4): every rank computes a local thin QR, the R factors are
//   gathered and stacked at rank 0, one QR of the (Σkᵢ x n) stack yields
//   the global R, and rank 0 scatters the matching row-slices of the
//   stack's Q back so each rank holds Q_localᵢ = Qᵢ · sliceᵢ.
//
//   Tree: R factors combine pairwise up a binary reduction tree and the
//   per-pair Q blocks are unwound down the same tree.  Message sizes stay
//   O(n²) regardless of rank count, at the price of log₂(p) rounds —
//   the classic trade against the direct variant's O(p·n²) root hotspot.
//
// Both end with an n x n transform T per rank, Q_localᵢ = Qᵢ · T, and
// return it next to the local factor Qᵢ in reflector form: the streaming
// update only needs Q_local times its K kept modes (q_times), so the
// m x n slice is never formed. Both use the deterministic
// positive-diagonal sign convention from qr_thin, which replaces the
// sign-negation "trick for consistency" in the PyParSVD listing (see
// DESIGN.md §4).
#pragma once

#include <vector>

#include "core/options.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "pmpi/comm.hpp"

namespace parsvd {

struct TsqrResult {
  /// This rank's local factorization Q_i R_i of a_local (diag(R_i) >= 0),
  /// Q_i kept as reflectors.
  FactoredQr local;
  /// Small transform onto the global Q: this rank's slice of the global Q
  /// is Q_local = Q_i · transform (min(Mᵢ, n) x columns of the global Q).
  Matrix transform;
  /// Global R factor, identical on every rank.
  Matrix r;
  /// Ranks whose R factor was lost to a failure (fault-tolerant mode
  /// only; always empty otherwise). Their rows are absent from R.
  std::vector<int> excluded_ranks;

  /// Q_local · S (this rank's rows x S.cols()) for S with as many rows
  /// as the global Q has columns, without forming Q_local.
  Matrix q_times(const Matrix& s) const;

  /// Local slice of the global Q: rows match this rank's a_local rows,
  /// columns = min(Σ min(Mᵢ, n), n). Forms the slice; q_times is cheaper
  /// when only a few combinations of its columns are wanted.
  Matrix q_local() const;
};

/// Distributed thin QR of the implicitly row-stacked matrix
/// A = [a_local⁰; a_local¹; ...]. Collective: every rank must call with
/// the same column count and variant.
///
/// With `fault_tolerant` set the gather/broadcast legs use the
/// ft-collectives: ranks that die mid-call are excluded and the
/// factorization completes on the survivors' rows (excluded_ranks lists
/// the casualties). Only the Direct variant supports exclusion — Tree
/// falls back to Direct in fault-tolerant mode. Rank 0's death remains
/// unrecoverable (it owns the stacked factorization).
TsqrResult tsqr(pmpi::Communicator& comm, Matrix a_local,
                TsqrVariant variant = TsqrVariant::Direct,
                bool fault_tolerant = false);

}  // namespace parsvd
