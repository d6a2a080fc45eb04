#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace parsvd {
namespace {

// Fixed count of independent partial sums for the reflector reductions.
// One running sum is a serial dependency chain that -O3 may not
// reassociate; kLanes separate accumulators let it map the loop onto
// vector registers under -march=native.
constexpr Index kLanes = 8;

double dot_lanes(const double* x, const double* y, Index n) {
  double acc[kLanes] = {};
  Index i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (Index l = 0; l < kLanes; ++l) acc[l] += x[i + l] * y[i + l];
  }
  double s = 0.0;
  for (; i < n; ++i) s += x[i] * y[i];
  for (Index l = 0; l < kLanes; ++l) s += acc[l];
  return s;
}

// ‖x‖₂ from one vectorized sum of squares when that sum can neither have
// overflowed nor be dominated by underflowed terms; the scaled nrm2
// (two divisions per entry) otherwise.
double norm_lanes(std::span<const double> x) {
  using limits = std::numeric_limits<double>;
  constexpr double kSafeMin = limits::min() / limits::epsilon();
  const auto n = static_cast<Index>(x.size());
  const double ssq = dot_lanes(x.data(), x.data(), n);
  if (ssq >= kSafeMin && ssq <= limits::max()) {
    return std::sqrt(ssq);
  }
  return nrm2(x);
}

// c := (I − tau v vᵀ) c for v = (1; tail) and c = (c[0]; c[1..len]).
void reflect(double tau, const double* tail, double* c, Index len) {
  const double w = tau * (c[0] + dot_lanes(tail, c + 1, len));
  c[0] -= w;
  double* c1 = c + 1;
  for (Index i = 0; i < len; ++i) c1[i] -= w * tail[i];
}

// Generate a Householder reflector for x = (alpha; tail) such that
// (I - tau v vᵀ) x = (beta; 0), with v = (1; tail/ (alpha - beta)).
// Returns {tau, beta}; v's tail is written over x's tail.
struct Reflector {
  double tau;
  double beta;
};

Reflector make_reflector(double alpha, std::span<double> tail) {
  const double xnorm = norm_lanes(tail);
  if (xnorm == 0.0) {
    // Nothing below the diagonal: identity reflector.
    return {0.0, alpha};
  }
  double beta = std::hypot(alpha, xnorm);
  if (alpha >= 0.0) beta = -beta;  // choose sign to avoid cancellation
  const double tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  scal(inv, tail);
  return {tau, beta};
}

// Compact-WY block reflector I − V op(T) Vᵀ of the reflectors
// [j0, j0+jb), read in place from the factored matrix `qr`: V = [V1; V2]
// with V1 the jb x jb unit lower triangle on rows [j0, j0+jb) (unit
// diagonal implicit, R above it) and V2 the (m−j0−jb) x jb block below.
// `c` points at row j0 of an nc-column operand with leading dim ldc; its
// rows [j0, m) become (I − V op(T) Vᵀ) C, i.e. Qᵀ C for transpose=true
// and Q C otherwise. Only the first `c2_rows` rows of C2 (the part facing
// V2) may be nonzero on entry. The two tall products run on one thread:
// the pool's column split would repack the whole tall operand per chunk.
void apply_wy(const Matrix& qr, Index j0, Index jb, const double* t, Index ldt,
              bool transpose, double* c, Index ldc, Index nc, Index c2_rows) {
  if (nc == 0) return;
  const Index ld = qr.rows();
  const Index m2 = ld - j0 - jb;
  const double* v1 = qr.col_data(j0) + j0;
  const double* v2 = v1 + jb;
  double* c2 = c + jb;

  // W = V1ᵀ C1 + V2ᵀ C2  (jb x nc)
  Matrix w(jb, nc);
  for (Index col = 0; col < nc; ++col) {
    const double* c1 = c + col * ldc;
    double* wc = w.col_data(col);
    for (Index i = 0; i < jb; ++i) {
      wc[i] = c1[i] + dot_lanes(v1 + i * ld + i + 1, c1 + i + 1, jb - i - 1);
    }
  }
  detail::gemm_accumulate(Trans::Yes, Trans::No, jb, nc, c2_rows, 1.0, v2, ld,
                          c2, ldc, w.data(), jb, /*allow_parallel=*/false);
  // W := op(T) W — T is jb x jb upper triangular.
  if (transpose) {
    // (Tᵀ W)_i = Σ_{l<=i} T(l,i) W_l; descending i keeps inputs intact.
    for (Index col = 0; col < nc; ++col) {
      double* wc = w.col_data(col);
      for (Index i = jb - 1; i >= 0; --i) {
        wc[i] = dot_lanes(t + i * ldt, wc, i + 1);
      }
    }
  } else {
    // (T W)_i = Σ_{l>=i} T(i,l) W_l; ascending i keeps inputs intact.
    for (Index col = 0; col < nc; ++col) {
      double* wc = w.col_data(col);
      for (Index i = 0; i < jb; ++i) {
        double s = 0.0;
        for (Index l = i; l < jb; ++l) s += t[i + l * ldt] * wc[l];
        wc[i] = s;
      }
    }
  }
  // C2 -= V2 W, C1 -= V1 W
  detail::gemm_accumulate(Trans::No, Trans::No, m2, nc, jb, -1.0, v2, ld,
                          w.data(), jb, c2, ldc, /*allow_parallel=*/false);
  for (Index col = 0; col < nc; ++col) {
    double* c1 = c + col * ldc;
    const double* wc = w.col_data(col);
    for (Index i = 0; i < jb; ++i) {
      c1[i] -= wc[i];
      const double* vi = v1 + i * ld;
      for (Index r = i + 1; r < jb; ++r) c1[r] -= vi[r] * wc[i];
    }
  }
}

obs::Counter& qr_flops() {
  static obs::Counter& flops =
      obs::Registry::global().counter("linalg.qr.flops");
  return flops;
}

}  // namespace

HouseholderQr::HouseholderQr(Matrix a, Index block) : qr_(std::move(a)) {
  const Index m = qr_.rows();
  const Index n = qr_.cols();
  PARSVD_REQUIRE(m > 0 && n > 0, "QR of an empty matrix");
  PARSVD_TRACE_SCOPE("linalg.qr.factor");
  static obs::Counter& calls = obs::Registry::global().counter("linalg.qr.calls");
  calls.add(1);
  const Index k = std::min(m, n);
  // Householder QR cost model: 2mnk - 2k^3/3 (k = min(m, n)); since
  // k <= m and k <= n the subtraction can't wrap the unsigned counter.
  qr_flops().add(
      2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
          static_cast<std::uint64_t>(k) -
      2ull * static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(k) *
          static_cast<std::uint64_t>(k) / 3);
  tau_.assign(static_cast<std::size_t>(k), 0.0);
  block_ = (block > 0) ? block : kQrBlock;
  if (block_ <= 1) {
    factor_unblocked();
  } else {
    factor_blocked();
  }
}

void HouseholderQr::factor_unblocked() {
  factor_panel(0, rank_bound(), qr_.cols());
}

void HouseholderQr::factor_blocked() {
  const Index m = qr_.rows();
  const Index n = qr_.cols();
  const Index k = rank_bound();
  t_ = Matrix(std::min(block_, k), k);
  for (Index j0 = 0; j0 < k; j0 += block_) {
    const Index jb = std::min(block_, k - j0);
    factor_panel(j0, jb, j0 + jb);
    build_t(j0, jb);
    const Index next = j0 + jb;
    if (next < n) {
      // Level-3 trailing update: A(j0:m, next:n) := Q_panelᵀ A(j0:m, next:n).
      apply_wy(qr_, j0, jb, t_.col_data(j0), t_.rows(), /*transpose=*/true,
               qr_.col_data(next) + j0, m, n - next, m - next);
    }
  }
}

void HouseholderQr::factor_panel(Index j0, Index jb, Index update_to) {
  const Index m = qr_.rows();
  for (Index jj = 0; jj < jb; ++jj) {
    const Index j = j0 + jj;
    double* colj = qr_.col_data(j);
    const Index len = m - j - 1;
    const Reflector h =
        make_reflector(colj[j], {colj + j + 1, static_cast<std::size_t>(len)});
    tau_[static_cast<std::size_t>(j)] = h.tau;
    colj[j] = h.beta;
    if (h.tau == 0.0) continue;
    // Apply (I - tau v vᵀ), v = (1, qr_(j+1..m-1, j)), to the remaining
    // panel columns.
    for (Index c = j + 1; c < update_to; ++c) {
      reflect(h.tau, colj + j + 1, qr_.col_data(c) + j, len);
    }
  }
}

void HouseholderQr::build_t(Index j0, Index jb) {
  // Walker's identity: for H_0 ... H_{jb-1} = I − V T Vᵀ,
  //   T⁻¹ = striu(VᵀV) + diag(1/τ),
  // so T costs one VᵀV product through the packed engine plus a jb x jb
  // triangular inverse, instead of LAPACK larft's jb column recurrences.
  // An identity reflector (τ = 0) drops out of the product: its row and
  // column of T stay zero.
  const Index m = qr_.rows();
  const Index ldt = t_.rows();
  double* t = t_.col_data(j0);
  const double* v1 = qr_.col_data(j0) + j0;
  const double* v2 = v1 + jb;
  for (Index j = 0; j < jb; ++j) std::fill_n(t + j * ldt, jb, 0.0);
  detail::gemm_accumulate(Trans::Yes, Trans::No, jb, jb, m - j0 - jb, 1.0, v2,
                          m, v2, m, t, ldt, /*allow_parallel=*/false);
  // Add V1ᵀV1's strict upper part (V1 unit lower triangular): for i < l,
  // v_i · v_l over rows [l, jb) = V1(l,i) + Σ_{r>l} V1(r,i) V1(r,l).
  for (Index l = 1; l < jb; ++l) {
    const double* vl = v1 + l * m;
    for (Index i = 0; i < l; ++i) {
      const double* vi = v1 + i * m;
      t[i + l * ldt] += vi[l] + dot_lanes(vi + l + 1, vl + l + 1, jb - l - 1);
    }
  }
  // Upper triangle of T⁻¹; identity reflectors get a bare unit diagonal.
  for (Index j = 0; j < jb; ++j) {
    const double tau = tau_[static_cast<std::size_t>(j0 + j)];
    for (Index i = j + 1; i < jb; ++i) t[i + j * ldt] = 0.0;
    if (tau != 0.0) {
      t[j + j * ldt] = 1.0 / tau;
      continue;
    }
    t[j + j * ldt] = 1.0;
    for (Index i = 0; i < j; ++i) t[i + j * ldt] = 0.0;
    for (Index l = j + 1; l < jb; ++l) t[j + l * ldt] = 0.0;
  }
  // In-place upper-triangular inverse, column by column (LAPACK trti2):
  // T(0:j, j) = −T(j,j) · T(0:j,0:j) T⁻¹(0:j, j) with the leading block
  // already inverted.
  for (Index j = 0; j < jb; ++j) {
    double* tj = t + j * ldt;
    tj[j] = 1.0 / tj[j];
    const double ajj = -tj[j];
    for (Index i = 0; i < j; ++i) {
      double s = 0.0;
      for (Index p = i; p < j; ++p) s += t[i + p * ldt] * tj[p];
      tj[i] = ajj * s;
    }
  }
  for (Index j = 0; j < jb; ++j) {
    if (tau_[static_cast<std::size_t>(j0 + j)] == 0.0) t[j + j * ldt] = 0.0;
  }
}

Matrix HouseholderQr::r() const {
  const Index m = qr_.rows();
  const Index n = qr_.cols();
  const Index k = std::min(m, n);
  Matrix out(k, n);
  for (Index j = 0; j < n; ++j) {
    const Index upto = std::min(j + 1, k);
    for (Index i = 0; i < upto; ++i) out(i, j) = qr_(i, j);
  }
  return out;
}

Matrix HouseholderQr::thin_q() const {
  return q_times(Matrix::identity(rank_bound()));
}

Matrix HouseholderQr::q_times(const Matrix& s) const {
  const Index m = qr_.rows();
  const Index k = rank_bound();
  const Index nc = s.cols();
  PARSVD_REQUIRE(s.rows() == k, "q_times: S must have min(m, n) rows");
  PARSVD_TRACE_SCOPE("linalg.qr.apply");
  Matrix c(m, nc);
  for (Index j = 0; j < nc; ++j) std::copy_n(s.col_data(j), k, c.col_data(j));
  if (block_ <= 1) {
    // 4 flops per touched entry: reflector j touches rows [j, m).
    qr_flops().add(4ull * static_cast<std::uint64_t>(nc) *
                   static_cast<std::uint64_t>(k * m - k * (k - 1) / 2));
    apply_q(c);
    return c;
  }
  // Q = H_0 ... H_{k-1}: blocks in reverse. Before the first (last) block
  // only the k rows of S can be nonzero, so its Vᵀ C product stops there;
  // every later block sees a dense operand.
  std::uint64_t flops = 0;
  Index filled = k;
  const Index nblocks = (k + block_ - 1) / block_;
  for (Index blk = nblocks - 1; blk >= 0; --blk) {
    const Index j0 = blk * block_;
    const Index jb = std::min(block_, k - j0);
    // Vᵀ C over the nonzero rows, V W over every row of the block.
    flops += 2ull * static_cast<std::uint64_t>(jb) *
             static_cast<std::uint64_t>(nc) *
             static_cast<std::uint64_t>((filled - j0) + (m - j0));
    apply_wy(qr_, j0, jb, t_.col_data(j0), t_.rows(), /*transpose=*/false,
             c.data() + j0, m, nc, filled - j0 - jb);
    filled = m;
  }
  qr_flops().add(flops);
  return c;
}

void HouseholderQr::apply_blocked(Matrix& b, bool transpose) const {
  const Index m = qr_.rows();
  const Index k = rank_bound();
  const Index nc = b.cols();
  const Index nblocks = (k + block_ - 1) / block_;
  // Qᵀ B applies the reflector blocks forward, Q B in reverse.
  for (Index bi = 0; bi < nblocks; ++bi) {
    const Index blk = transpose ? bi : nblocks - 1 - bi;
    const Index j0 = blk * block_;
    const Index jb = std::min(block_, k - j0);
    apply_wy(qr_, j0, jb, t_.col_data(j0), t_.rows(), transpose,
             b.data() + j0, m, nc, m - j0 - jb);
  }
}

void HouseholderQr::apply_qt(Matrix& b) const {
  const Index m = qr_.rows();
  PARSVD_REQUIRE(b.rows() == m, "apply_qt: row mismatch");
  if (block_ > 1) {
    apply_blocked(b, /*transpose=*/true);
    return;
  }
  const Index k = rank_bound();
  // Qᵀ = H_{k-1} ... H_0 applied in forward order.
  for (Index j = 0; j < k; ++j) {
    const double tau = tau_[static_cast<std::size_t>(j)];
    if (tau == 0.0) continue;
    for (Index c = 0; c < b.cols(); ++c) {
      reflect(tau, qr_.col_data(j) + j + 1, b.col_data(c) + j, m - j - 1);
    }
  }
}

void HouseholderQr::apply_q(Matrix& b) const {
  const Index m = qr_.rows();
  PARSVD_REQUIRE(b.rows() == m, "apply_q: row mismatch");
  if (block_ > 1) {
    apply_blocked(b, /*transpose=*/false);
    return;
  }
  const Index k = rank_bound();
  // Q = H_0 ... H_{k-1} applied in reverse order.
  for (Index j = k - 1; j >= 0; --j) {
    const double tau = tau_[static_cast<std::size_t>(j)];
    if (tau == 0.0) continue;
    for (Index c = 0; c < b.cols(); ++c) {
      reflect(tau, qr_.col_data(j) + j + 1, b.col_data(c) + j, m - j - 1);
    }
  }
}

Vector HouseholderQr::solve_least_squares(const Vector& b) const {
  const Index m = qr_.rows();
  const Index n = qr_.cols();
  PARSVD_REQUIRE(b.size() == m, "least-squares rhs length mismatch");
  PARSVD_REQUIRE(m >= n, "least squares requires m >= n");

  Matrix rhs(m, 1);
  rhs.set_col(0, b);
  apply_qt(rhs);

  // Back substitution on the n x n upper triangle.
  Vector x(n);
  for (Index i = n - 1; i >= 0; --i) {
    double s = rhs(i, 0);
    for (Index j = i + 1; j < n; ++j) s -= qr_(i, j) * x[j];
    const double rii = qr_(i, i);
    PARSVD_REQUIRE(rii != 0.0, "rank-deficient least-squares system");
    x[i] = s / rii;
  }
  return x;
}

QrResult qr_thin_raw(const Matrix& a) {
  HouseholderQr f(a);
  return {f.thin_q(), f.r()};
}

FactoredQr::FactoredQr(Matrix a) : h_(std::move(a)), r_(h_.r()) {
  const Index k = r_.rows();
  flipped_.assign(static_cast<std::size_t>(k), false);
  for (Index i = 0; i < k; ++i) {
    if (r_(i, i) < 0.0) {
      flipped_[static_cast<std::size_t>(i)] = true;
      for (Index j = 0; j < r_.cols(); ++j) r_(i, j) = -r_(i, j);
    }
  }
}

Matrix FactoredQr::q_times(const Matrix& s) const {
  PARSVD_REQUIRE(s.rows() == rank_bound(),
                 "q_times: S must have min(m, n) rows");
  Matrix ds = s;
  for (Index j = 0; j < ds.cols(); ++j) {
    double* col = ds.col_data(j);
    for (Index i = 0; i < ds.rows(); ++i) {
      if (flipped_[static_cast<std::size_t>(i)]) col[i] = -col[i];
    }
  }
  return h_.q_times(ds);
}

Matrix FactoredQr::thin_q() const {
  return q_times(Matrix::identity(rank_bound()));
}

QrResult qr_thin(const Matrix& a) {
  FactoredQr f(a);
  return {f.thin_q(), f.r()};
}

namespace {

// fp32 column helpers with double accumulation (a float dot over 10^4+
// rows loses ~3 digits if accumulated in float; the widening is free on
// scalar units and irrelevant next to the fp32 GEMM savings).
double dot_f32(std::span<const float> x, std::span<const float> y) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    s += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return s;
}

void axpy_f32(float alpha, std::span<const float> x, std::span<float> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace

Index orthonormalize_mgs2_f32(MatrixF& a, float tol) {
  const Index n = a.cols();
  Index dropped = 0;
  std::vector<double> initial(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    initial[static_cast<std::size_t>(j)] =
        std::sqrt(dot_f32(a.col_span(j), a.col_span(j)));
  }

  for (Index j = 0; j < n; ++j) {
    auto colj = a.col_span(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (Index i = 0; i < j; ++i) {
        const double proj = dot_f32(a.col_span(i), colj);
        axpy_f32(static_cast<float>(-proj), a.col_span(i), colj);
      }
    }
    const double norm = std::sqrt(dot_f32(colj, colj));
    const double floor_norm = static_cast<double>(tol) *
                              std::max(initial[static_cast<std::size_t>(j)], 1.0);
    if (norm <= floor_norm) {
      std::fill(colj.begin(), colj.end(), 0.0f);
      ++dropped;
    } else {
      const float inv = static_cast<float>(1.0 / norm);
      for (float& v : colj) v *= inv;
    }
  }
  return dropped;
}

Index orthonormalize_mgs2(Matrix& a, double tol) {
  const Index n = a.cols();
  Index dropped = 0;
  std::vector<double> initial(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) initial[static_cast<std::size_t>(j)] = nrm2(a.col_span(j));

  for (Index j = 0; j < n; ++j) {
    auto colj = a.col_span(j);
    // Two MGS passes against all previous columns for CGS2-level
    // orthogonality (single-pass MGS loses orthogonality at kappa ~ 1e8).
    for (int pass = 0; pass < 2; ++pass) {
      for (Index i = 0; i < j; ++i) {
        const double proj = dot(a.col_span(i), colj);
        axpy(-proj, a.col_span(i), colj);
      }
    }
    const double norm = nrm2(colj);
    const double floor_norm = tol * std::max(initial[static_cast<std::size_t>(j)], 1.0);
    if (norm <= floor_norm) {
      std::fill(colj.begin(), colj.end(), 0.0);
      ++dropped;
    } else {
      scal(1.0 / norm, colj);
    }
  }
  return dropped;
}

namespace {

// Cholesky S = RᵀR of a symmetric matrix (full storage), R left in the
// upper triangle, strict lower zeroed. Fails (false) on a pivot at or
// below `pivot_floor` — the caller sets the floor to the Gram noise level
// of the precision that computed S, so "breakdown" means the
// factorization would be resolving noise, not data. The `!(d > ...)`
// form also catches NaN from an overflowed Gram.
bool cholesky_upper(Matrix& s, double pivot_floor) {
  const Index n = s.rows();
  for (Index j = 0; j < n; ++j) {
    double d = s(j, j);
    for (Index k = 0; k < j; ++k) d -= s(k, j) * s(k, j);
    if (!(d > pivot_floor)) return false;
    const double r = std::sqrt(d);
    s(j, j) = r;
    for (Index i = j + 1; i < n; ++i) {
      double v = s(j, i);
      for (Index k = 0; k < j; ++k) v -= s(k, j) * s(k, i);
      s(j, i) = v / r;
    }
  }
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) s(i, j) = 0.0;
  }
  return true;
}

// Inverse of an upper-triangular R by back substitution, column by
// column. n is the sketch width (tens), so the O(n^3) scalar loops are
// noise next to the m x n GEMMs around them.
Matrix upper_inverse(const Matrix& r) {
  const Index n = r.rows();
  Matrix inv(n, n);
  for (Index j = 0; j < n; ++j) {
    inv(j, j) = 1.0 / r(j, j);
    for (Index i = j - 1; i >= 0; --i) {
      double s = 0.0;
      for (Index k = i + 1; k <= j; ++k) s += r(i, k) * inv(k, j);
      inv(i, j) = -s / r(i, i);
    }
  }
  return inv;
}

// One fp64 CholeskyQR pass. `pivot_rel` scales the breakdown floor by the
// largest Gram diagonal.
bool cholqr_pass(Matrix& a, double pivot_rel) {
  Matrix s = gram(a);
  double max_diag = 0.0;
  for (Index j = 0; j < s.cols(); ++j) max_diag = std::max(max_diag, s(j, j));
  if (!(max_diag > 0.0)) return false;
  if (!cholesky_upper(s, pivot_rel * max_diag)) return false;
  const Matrix rinv = upper_inverse(s);
  Matrix out(a.rows(), a.cols());
  gemm(Trans::No, Trans::No, 1.0, a, rinv, 0.0, out);
  a = std::move(out);
  return true;
}

// fp32 pass: Gram and the basis update through the packed fp32 engine,
// the small factorization in double (free, and it keeps one Cholesky).
bool cholqr_pass_f32(MatrixF& a, double pivot_rel) {
  MatrixF sf(a.cols(), a.cols());
  gemm_f32(Trans::Yes, Trans::No, 1.0f, a, a, 0.0f, sf);
  Matrix s(a.cols(), a.cols());
  double max_diag = 0.0;
  for (Index j = 0; j < sf.cols(); ++j) {
    for (Index i = 0; i < sf.rows(); ++i) s(i, j) = static_cast<double>(sf(i, j));
    max_diag = std::max(max_diag, s(j, j));
  }
  if (!(max_diag > 0.0)) return false;
  if (!cholesky_upper(s, pivot_rel * max_diag)) return false;
  const Matrix rinv = upper_inverse(s);
  MatrixF rinvf(rinv.rows(), rinv.cols());
  for (Index j = 0; j < rinv.cols(); ++j) {
    for (Index i = 0; i < rinv.rows(); ++i) {
      rinvf(i, j) = static_cast<float>(rinv(i, j));
    }
  }
  MatrixF out(a.rows(), a.cols());
  gemm_f32(Trans::No, Trans::No, 1.0f, a, rinvf, 0.0f, out);
  a = std::move(out);
  return true;
}

}  // namespace

Index orthonormalize_cholqr2(Matrix& a, double tol) {
  if (a.cols() == 0) return 0;
  // Pivot floor at the fp64 Gram noise level: kappa(A)^2 beyond ~1e13
  // means the first Gram is numerically singular and MGS2 (which never
  // squares the condition number) is the right tool.
  Matrix backup = a;
  if (cholqr_pass(a, 1e-13) && cholqr_pass(a, 1e-13)) return 0;
  a = std::move(backup);
  return orthonormalize_mgs2(a, tol);
}

Index orthonormalize_cholqr2_f32(MatrixF& a, float tol) {
  if (a.cols() == 0) return 0;
  // fp32 Gram noise sits near 1e-7 relative, so breakdown fires around
  // kappa(A) ~ 3e3 — exactly where fp32 CholeskyQR stops being safe.
  MatrixF backup = a;
  if (cholqr_pass_f32(a, 1e-6) && cholqr_pass_f32(a, 1e-6)) return 0;
  a = std::move(backup);
  return orthonormalize_mgs2_f32(a, tol);
}

double orthogonality_error(const Matrix& q) {
  const Matrix g = gram(q);
  double err = 0.0;
  for (Index j = 0; j < g.cols(); ++j) {
    for (Index i = 0; i < g.rows(); ++i) {
      const double target = (i == j) ? 1.0 : 0.0;
      err = std::max(err, std::fabs(g(i, j) - target));
    }
  }
  return err;
}

}  // namespace parsvd
