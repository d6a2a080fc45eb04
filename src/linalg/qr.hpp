// QR factorizations.
//
// Householder QR is the workhorse of both the streaming SVD update
// (Algorithm 1, step 1) and the local stage of TSQR.  The factorization is
// *blocked*: panels of kQrBlock reflectors are factored with a
// level-2 sweep whose dot/axpy loops carry fixed-width partial sums (so
// -O3 -march=native vectorizes them), each panel's compact-WY factor
// Q = I − V T Vᵀ comes from one VᵀV product through the packed GEMM
// (Walker's identity T⁻¹ = striu(VᵀV) + diag(1/τ)), and the trailing
// matrix is updated with two level-3 GEMMs.  The reflectors stay in place
// in the factored matrix; no explicit V is ever copied out.  Q itself is
// rarely needed: q_times(S) forms Q·[S; 0] straight from the reflectors,
// which is what the streaming update wants (the K kept modes of an
// m x (K+B) Q).  The tall-skinny GEMMs inside run on one thread.
// qr_thin() still offers the explicit thin Q with a deterministic sign
// convention: diag(R) >= 0.  The PyParSVD code obtains cross-rank
// consistency by negating NumPy's Q and R ("trick for consistency");
// fixing the sign inside the factorization achieves the same goal
// deterministically for every backend and rank count.
#pragma once

#include "linalg/matrix.hpp"

namespace parsvd {

/// Thin QR result: for A (m x n), q is m x min(m,n) with orthonormal
/// columns, r is min(m,n) x n upper-triangular(-trapezoidal), A = q r.
struct QrResult {
  Matrix q;
  Matrix r;
};

/// Default panel width of the blocked Householder QR.
inline constexpr Index kQrBlock = 32;

/// Householder QR in factored form.
///
/// Stores the reflectors in the lower triangle of the working copy plus
/// the tau coefficients (LAPACK geqrf layout). Cost 2mn^2 - 2n^3/3 flops,
/// with the dominant share running as level-3 trailing updates when
/// min(m,n) exceeds the panel width.
class HouseholderQr {
 public:
  /// Factor A (any shape; m >= 1, n >= 1) in place of its own storage
  /// (pass an rvalue to avoid the copy). `block` is the panel width:
  /// 0 selects the default (kQrBlock), `block <= 1`
  /// forces the unblocked column-at-a-time sweep (the reference path
  /// tests compare against).
  explicit HouseholderQr(Matrix a, Index block = 0);

  Index rows() const { return qr_.rows(); }
  Index cols() const { return qr_.cols(); }
  /// Number of reflectors = min(m, n).
  Index rank_bound() const { return static_cast<Index>(tau_.size()); }
  /// Panel width used for the blocked factor/apply paths.
  Index block() const { return block_; }

  /// R factor, min(m,n) x n, upper triangular/trapezoidal.
  Matrix r() const;

  /// Q·[S; 0] (m x S.cols()) for S with min(m,n) rows, computed from
  /// the stored reflectors without forming Q. The first block applied
  /// sees only S's rows, so for a single panel the work is one
  /// m x jb x S.cols() GEMM instead of forming all of Q and multiplying.
  Matrix q_times(const Matrix& s) const;

  /// Thin Q, m x min(m,n), orthonormal columns: q_times(I).
  Matrix thin_q() const;

  /// In-place B := Qᵀ B (B has m rows).
  void apply_qt(Matrix& b) const;

  /// In-place B := Q B (B has m rows).
  void apply_q(Matrix& b) const;

  /// Minimum-norm least-squares solution of min ||A x - b||_2 for m >= n
  /// with full column rank (no pivoting; throws on exactly-zero pivot).
  Vector solve_least_squares(const Vector& b) const;

 private:
  void factor_unblocked();
  void factor_blocked();
  /// Level-2 panel sweep over columns [j0, j0+jb); reflections are applied
  /// to columns [j0, update_to) only.
  void factor_panel(Index j0, Index jb, Index update_to);
  /// B := Q B (forward=false) or Qᵀ B (forward=true) for B with qr_.rows()
  /// rows, using the blocked WY representation.
  void apply_blocked(Matrix& b, bool transpose) const;

  Matrix qr_;                 // reflectors below diagonal, R on/above
  std::vector<double> tau_;   // reflector scaling coefficients
  Matrix t_;                  // per-panel T factors side by side (blocked)
  Index block_ = 1;           // panel width used by blocked paths
};

/// Thin QR with the deterministic sign convention diag(R) >= 0 and Q kept
/// in factored form: Q = H·D for the Householder product H and the sign
/// flip D = diag(±1) that makes diag(R) >= 0. Q·S costs one apply of the
/// reflectors to D·S, so callers that only need Q times a few columns
/// never form Q.
class FactoredQr {
 public:
  explicit FactoredQr(Matrix a);

  /// R, min(m,n) x n, upper triangular/trapezoidal with diag(R) >= 0.
  const Matrix& r() const { return r_; }
  /// Columns of the thin Q = min(m, n).
  Index rank_bound() const { return h_.rank_bound(); }

  /// Q·S (m x S.cols()) for S with rank_bound() rows.
  Matrix q_times(const Matrix& s) const;

  /// Explicit thin Q, m x min(m,n): q_times(I).
  Matrix thin_q() const;

 private:
  HouseholderQr h_;
  Matrix r_;
  std::vector<bool> flipped_;  // rows of R (columns of Q) negated
};

/// Thin QR with the deterministic sign convention diag(R) >= 0.
QrResult qr_thin(const Matrix& a);

/// Thin QR without the sign fix (raw Householder output).
QrResult qr_thin_raw(const Matrix& a);

/// Orthonormalize the columns of `a` in place with modified Gram-Schmidt
/// applied twice (CGS2-quality orthogonality, ~2mn^2 flops). Columns that
/// collapse below `tol * initial_norm` are replaced with zeros and their
/// count is returned (rank deficiency indicator).
Index orthonormalize_mgs2(Matrix& a, double tol = 1e-12);

/// fp32 counterpart used by the Single/Mixed range-finder paths (DESIGN
/// §12): the same two-pass MGS, with the projection dots accumulated in
/// double so the coefficients stay honest over long columns. The default
/// drop tolerance is scaled to fp32 epsilon.
Index orthonormalize_mgs2_f32(MatrixF& a, float tol = 1e-5f);

/// CholeskyQR2 orthonormalization of the columns of `a` in place: two
/// rounds of S = AᵀA (Cholesky S = RᵀR, A ← A R⁻¹), everything level-3
/// through the packed engine, so it runs at GEMM speed where MGS2 is a
/// memory-bound dot/axpy sweep — ~10x at range-finder shapes (4096 x 72).
/// One round needs kappa(A)^2 below the working precision; the second
/// round polishes orthogonality to machine level. On Cholesky breakdown
/// (rank deficiency or extreme conditioning) it falls back to
/// orthonormalize_mgs2 on the untouched input, so the return value is the
/// dropped-column count with the same semantics. Used by the fp32/Mixed
/// range-finder paths (DESIGN §12); the fp64 reference pipeline keeps
/// MGS2 so its results stay bit-identical across releases.
Index orthonormalize_cholqr2(Matrix& a, double tol = 1e-12);

/// fp32 counterpart: Gram and the A R⁻¹ update run through the packed
/// fp32 engine; the small Cholesky/triangular-inverse runs in double.
Index orthonormalize_cholqr2_f32(MatrixF& a, float tol = 1e-5f);

/// || QᵀQ - I ||_max — orthogonality defect used widely in tests.
double orthogonality_error(const Matrix& q);

namespace detail {

// Householder building blocks on raw column-major storage, shared by the
// blocked QR and the tridiagonal reduction of the symmetric eigensolver
// (linalg/eigh_tridiagonal.cpp). A reflector block is LAPACK-style: jb
// reflectors in an m x jb column block with leading dim `ld`, reflector
// j having an implicit unit on row j and its tail on rows (j, m).

/// xᵀy over n entries with fixed-width partial sums (vectorizable
/// without reassociation flags).
double dot_lanes(const double* x, const double* y, Index n);

struct Reflector {
  double tau;
  double beta;
};

/// Householder reflector for x = (alpha; tail) with
/// (I − tau v vᵀ) x = (beta; 0), v = (1; tail / (alpha − beta)).
/// v's tail is written over x's tail; tau = 0 when the tail is zero.
Reflector make_reflector(double alpha, std::span<double> tail);

/// Compact-WY factor of the block starting at `v1` (the unit diagonal of
/// its first reflector): H_0 ⋯ H_{jb−1} = I − V T Vᵀ, T jb x jb upper
/// triangular (LAPACK larft's forward convention), written to t.
void build_wy_t(const double* v1, Index ld, Index m, Index jb,
                const double* tau, double* t, Index ldt);

/// C := (I − V op(T) Vᵀ) C for the block starting at `v1`: Qᵀ C for
/// transpose=true, Q C otherwise. `c` points at the operand row facing
/// v1 (m rows, nc columns, leading dim ldc). Only the first `c2_rows`
/// rows below the jb x jb triangle may be nonzero on entry.
void apply_wy(const double* v1, Index ld, Index m, Index jb, const double* t,
              Index ldt, bool transpose, double* c, Index ldc, Index nc,
              Index c2_rows);

}  // namespace detail

}  // namespace parsvd
