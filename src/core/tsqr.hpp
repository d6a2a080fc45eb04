// Distributed tall-skinny QR (TSQR).
//
// The streaming update (Algorithm 1, step 1) needs the QR of a tall
// matrix whose rows are partitioned across ranks. This is the direct
// TSQR of Benson, Gleich & Demmel (2013), the one PyParSVD implements in
// Listing 4: every rank computes a local thin QR, the R factors are
// gathered and stacked at rank 0, one QR of the (Σkᵢ x n) stack yields
// the global R, and rank 0 sends each rank the matching row-slice of the
// stack's Q, so Q_localᵢ = Qᵢ · sliceᵢ. The root receives O(p·n²) bytes;
// a reduction-tree TSQR would cut that to O(n²) per message, which
// matters only at a rank count no workload here runs (DESIGN §7).
//
// The result keeps the n x n transform next to the local factor Qᵢ in
// reflector form: the streaming update only needs Q_local times its K
// kept modes (q_times), so the m x n slice is never formed. The
// deterministic positive-diagonal sign convention from qr_thin replaces
// the sign-negation "trick for consistency" in the PyParSVD listing (see
// DESIGN.md §4).
#pragma once

#include <vector>

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
/// the same column count and the same `fault_tolerant` flag.
///
/// With `fault_tolerant` set the gather/broadcast legs use the
/// ft-collectives: ranks that die mid-call are excluded and the
/// factorization completes on the survivors' rows (excluded_ranks lists
/// the casualties). Rank 0's death remains unrecoverable (it owns the
/// stacked factorization).
TsqrResult tsqr(pmpi::Communicator& comm, Matrix a_local,
                bool fault_tolerant = false);

}  // namespace parsvd
