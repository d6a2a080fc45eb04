#include "core/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"

namespace parsvd {

SvdBase::SvdBase(StreamingOptions opts) : opts_(opts) { opts_.validate(); }

const Matrix& SvdBase::apply_row_weights(const Matrix& batch,
                                         Matrix& scaled) const {
  if (opts_.row_weights.empty()) return batch;
  PARSVD_REQUIRE(opts_.row_weights.size() == batch.rows(),
                 "row_weights length must match the batch row count");
  scaled = batch;
  for (Index j = 0; j < scaled.cols(); ++j) {
    double* col = scaled.col_data(j);
    for (Index i = 0; i < scaled.rows(); ++i) {
      col[i] *= std::sqrt(opts_.row_weights[i]);
    }
  }
  return scaled;
}

double SvdBase::weighted_energy(const Matrix& batch) const {
  if (opts_.row_weights.empty()) {
    const double frob = batch.norm_fro();
    return frob * frob;
  }
  PARSVD_REQUIRE(opts_.row_weights.size() == batch.rows(),
                 "row_weights length must match the batch row count");
  double energy = 0.0;
  for (Index j = 0; j < batch.cols(); ++j) {
    const double* col = batch.col_data(j);
    for (Index i = 0; i < batch.rows(); ++i) {
      energy += opts_.row_weights[i] * col[i] * col[i];
    }
  }
  return energy;
}

Matrix SvdBase::remove_row_weights(const Matrix& modes) const {
  if (opts_.row_weights.empty()) return modes;
  PARSVD_REQUIRE(opts_.row_weights.size() == modes.rows(),
                 "row_weights length must match the mode row count");
  Matrix physical = modes;
  for (Index j = 0; j < physical.cols(); ++j) {
    double* col = physical.col_data(j);
    for (Index i = 0; i < physical.rows(); ++i) {
      col[i] /= std::sqrt(opts_.row_weights[i]);
    }
  }
  return physical;
}

Matrix SvdBase::discounted_concat(const Matrix& modes,
                                  const Matrix& batch) const {
  PARSVD_REQUIRE(opts_.row_weights.empty() ||
                     opts_.row_weights.size() == batch.rows(),
                 "row_weights length must match the batch row count");
  const Index m = batch.rows();
  const Index k = modes.cols();
  Matrix out(m, k + batch.cols());
  for (Index j = 0; j < k; ++j) {
    const double scale = opts_.forget_factor * singular_values_[j];
    const double* src = modes.col_data(j);
    double* dst = out.col_data(j);
    for (Index i = 0; i < m; ++i) dst[i] = scale * src[i];
  }
  for (Index j = 0; j < batch.cols(); ++j) {
    const double* src = batch.col_data(j);
    double* dst = out.col_data(k + j);
    if (opts_.row_weights.empty()) {
      std::copy_n(src, m, dst);
    } else {
      for (Index i = 0; i < m; ++i) {
        dst[i] = src[i] * std::sqrt(opts_.row_weights[i]);
      }
    }
  }
  return out;
}

Matrix SvdBase::physical_modes() { return remove_row_weights(modes_); }

Matrix SvdBase::project(const Matrix& batch) {
  require_initialized();
  // In √w space: C = modes_ᵀ (√w ∘ B) = Φᵀ W B, since Φ = W^{-1/2} modes_.
  Matrix scaled;
  return matmul(modes_, apply_row_weights(batch, scaled), Trans::Yes,
                Trans::No);
}

Matrix SvdBase::reconstruct(const Matrix& coefficients) const {
  PARSVD_REQUIRE(initialized_, "initialize() must be called first");
  PARSVD_REQUIRE(coefficients.rows() == modes_.cols(),
                 "coefficient rows must equal the retained mode count");
  return remove_row_weights(matmul(modes_, coefficients));
}

SerialStreamingSVD::SerialStreamingSVD(StreamingOptions opts)
    : SvdBase(std::move(opts)), rng_(opts_.randomized.seed) {}

SvdResult SerialStreamingSVD::inner_svd(const Matrix& a, Index rank) {
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

void SerialStreamingSVD::initialize(const Matrix& batch) {
  PARSVD_REQUIRE(!initialized_, "initialize() called twice");
  PARSVD_REQUIRE(!batch.empty(), "empty initial batch");
  num_rows_ = batch.rows();

  // I1-I2 of Algorithm 1: QR of the first batch, SVD of the small R,
  // lift U through Q. Weighted problems run on the √w-scaled data: the
  // update input [ff·UΣ | √w ∘ A] with no modes yet, in one allocation.
  const FactoredQr qr(discounted_concat(Matrix(batch.rows(), 0), batch));
  const Index keep = std::min(opts_.num_modes, std::min(batch.rows(), batch.cols()));
  SvdResult f = inner_svd(qr.r(), keep);
  modes_ = qr.q_times(f.u.left_cols(keep));
  singular_values_ = f.s.head(keep);
  snapshots_seen_ = batch.cols();
  initialized_ = true;
}

void SerialStreamingSVD::incorporate_data(const Matrix& batch) {
  require_initialized();
  PARSVD_REQUIRE(batch.rows() == num_rows_,
                 "batch row count differs from the initialized problem");
  PARSVD_REQUIRE(batch.cols() > 0, "empty streaming batch");
  ++iteration_;
  snapshots_seen_ += batch.cols();

  // Step 1: concatenate the discounted running factorization with the
  // new snapshots and re-factor in place: [ff·U Σ | A_i] = U' D'.
  const FactoredQr qr(discounted_concat(modes_, batch));

  // Steps 2-5: SVD of the small D', keep the leading K triplets, rotate
  // Q onto them without forming it: modes = Q·U'_K.
  const Index keep =
      std::min(opts_.num_modes, std::min(qr.r().rows(), qr.r().cols()));
  SvdResult f = inner_svd(qr.r(), keep);
  modes_ = qr.q_times(f.u.left_cols(keep));
  singular_values_ = f.s.head(keep);
}

}  // namespace parsvd
