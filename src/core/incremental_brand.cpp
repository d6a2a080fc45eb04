#include "core/incremental_brand.hpp"

#include <algorithm>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"

namespace parsvd {
namespace {

/// Updates between explicit re-orthonormalizations of U. Brand's update
/// keeps U orthonormal only in exact arithmetic; round-off drift
/// accumulates at ~eps per step, so a periodic cleanup (a k x k QR fold,
/// cost O(m k²)) keeps long streams healthy.
constexpr Index kReorthInterval = 32;

}  // namespace

IncrementalSVD::IncrementalSVD(StreamingOptions opts, bool track_right_vectors)
    : SvdBase(std::move(opts)),
      track_v_(track_right_vectors),
      rng_(opts_.randomized.seed) {}

SvdResult IncrementalSVD::inner_svd(const Matrix& a, Index rank) {
  if (opts_.low_rank) {
    RandomizedOptions ropts = opts_.randomized;
    ropts.rank = std::min(rank, std::min(a.rows(), a.cols()));
    return randomized_svd(a, ropts, rng_);
  }
  SvdOptions sopts;
  sopts.method = opts_.method;
  sopts.rank = std::min(rank, std::min(a.rows(), a.cols()));
  return svd(a, sopts);
}

void IncrementalSVD::initialize(const Matrix& batch) {
  PARSVD_REQUIRE(!initialized_, "initialize() called twice");
  PARSVD_REQUIRE(!batch.empty(), "empty initial batch");
  num_rows_ = batch.rows();

  Matrix scaled;
  QrResult qr = qr_thin(apply_row_weights(batch, scaled));
  const Index keep =
      std::min(opts_.num_modes, std::min(batch.rows(), batch.cols()));
  SvdResult f = inner_svd(qr.r, keep);
  modes_ = matmul(qr.q, f.u.left_cols(keep));
  singular_values_ = f.s.head(keep);
  if (track_v_) {
    v_ = f.v.left_cols(keep);
  }
  snapshots_seen_ = batch.cols();
  initialized_ = true;
}

void IncrementalSVD::incorporate_data(const Matrix& batch) {
  require_initialized();
  PARSVD_REQUIRE(batch.rows() == num_rows_,
                 "batch row count differs from the initialized problem");
  PARSVD_REQUIRE(batch.cols() > 0, "empty streaming batch");
  ++iteration_;
  snapshots_seen_ += batch.cols();

  Matrix scaled;
  const Matrix& c = apply_row_weights(batch, scaled);
  const Index k = modes_.cols();
  const Index b = c.cols();

  // Project the new columns onto the current basis and split off the
  // out-of-subspace residual. A naive QR of the residual breaks when a
  // batch lies (numerically) inside span(U): QR of a ~zero matrix
  // returns arbitrary directions that are NOT orthogonal to U, silently
  // double-counting energy. Instead: project twice (classical
  // Gram-Schmidt-squared, folding the correction back into L) and
  // orthonormalize the residual with a drop threshold — in-span
  // directions come back as zero columns, which are harmless.
  Matrix l = matmul(modes_, c, Trans::Yes, Trans::No);  // k x b
  Matrix h = c;
  gemm(Trans::No, Trans::No, -1.0, modes_, l, 1.0, h);  // C - U L
  const Matrix l2 = matmul(modes_, h, Trans::Yes, Trans::No);
  gemm(Trans::No, Trans::No, -1.0, modes_, l2, 1.0, h);
  l += l2;

  Matrix j_basis = h;                  // m x b, zero columns where in-span
  orthonormalize_mgs2(j_basis);
  const Matrix r_h = matmul(j_basis, h, Trans::Yes, Trans::No);  // b x b

  // Augmented core: [ ff·diag(S)  L ; 0  R_H ].
  const Index b2 = j_basis.cols();
  Matrix core(k + b2, k + b, 0.0);
  for (Index i = 0; i < k; ++i) {
    core(i, i) = opts_.forget_factor * singular_values_[i];
  }
  core.set_block(0, k, l);
  core.set_block(k, k, r_h);

  const Index keep = std::min(opts_.num_modes, std::min(k + b2, k + b));
  SvdResult f = inner_svd(core, keep);

  // Rotate the enlarged basis [U J] onto the leading core directions.
  const Matrix basis = hcat(modes_, j_basis);  // m x (k + b2)
  modes_ = matmul(basis, f.u.left_cols(keep));
  singular_values_ = f.s.head(keep);

  if (track_v_) {
    // V_new = [ V 0 ; 0 I_b ] V_core — old snapshots rotate through the
    // top k rows of V_core, the new batch enters through the bottom b.
    const Matrix v_top = f.v.block(0, 0, k, keep);
    const Matrix v_bottom = f.v.block(k, 0, b, keep);
    v_ = vcat(matmul(v_, v_top), v_bottom);
  }

  // Periodic re-orthonormalization: fold the QR of U back into the
  // small factors so the factorization stays exact.
  if (iteration_ % kReorthInterval == 0) {
    QrResult uqr = qr_thin(modes_);
    Matrix rs = uqr.r;  // k x k
    for (Index j = 0; j < rs.cols(); ++j) {
      scal(singular_values_[j], rs.col_span(j));
    }
    SvdResult rf = inner_svd(rs, rs.cols());
    modes_ = matmul(uqr.q, rf.u);
    singular_values_ = rf.s;
    if (track_v_) v_ = matmul(v_, rf.v);
  }
}

const Matrix& IncrementalSVD::right_vectors() const {
  PARSVD_REQUIRE(track_v_, "right-vector tracking was not enabled");
  return v_;
}

Matrix IncrementalSVD::reconstruct_stream() const {
  PARSVD_REQUIRE(initialized_, "initialize() must be called first");
  PARSVD_REQUIRE(track_v_, "right-vector tracking was not enabled");
  Matrix us = modes_;
  for (Index j = 0; j < us.cols(); ++j) {
    scal(singular_values_[j], us.col_span(j));
  }
  return remove_row_weights(matmul(us, v_, Trans::No, Trans::Yes));
}

}  // namespace parsvd
