#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/blas.hpp"
#include "linalg/eigh.hpp"
#include "linalg/qr.hpp"

namespace parsvd {

Matrix SvdResult::reconstruct() const {
  Matrix us = u;
  for (Index j = 0; j < us.cols(); ++j) {
    scal(s[j], us.col_span(j));
  }
  return matmul(us, v, Trans::No, Trans::Yes);
}

namespace {

/// Truncate an SVD result to the leading `rank` triplets (0 = keep all).
void truncate(SvdResult& r, Index rank) {
  if (rank <= 0 || rank >= r.s.size()) return;
  r.u = r.u.left_cols(rank);
  r.v = r.v.left_cols(rank);
  r.s = r.s.head(rank);
}

/// Sort an SVD result by descending singular value (stable).
void sort_descending(SvdResult& r) {
  const Index k = r.s.size();
  std::vector<Index> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(),
                   [&r](Index a, Index b) { return r.s[a] > r.s[b]; });
  bool sorted = true;
  for (Index i = 0; i < k; ++i) {
    if (order[static_cast<std::size_t>(i)] != i) { sorted = false; break; }
  }
  if (sorted) return;
  Matrix u(r.u.rows(), k), v(r.v.rows(), k);
  Vector s(k);
  for (Index i = 0; i < k; ++i) {
    const Index src = order[static_cast<std::size_t>(i)];
    u.set_col(i, r.u.col(src));
    v.set_col(i, r.v.col(src));
    s[i] = r.s[src];
  }
  r.u = std::move(u);
  r.v = std::move(v);
  r.s = std::move(s);
}

/// Core one-sided Jacobi on a square-ish working matrix W (m x n, m >= n).
/// On return W's columns are U scaled by the singular values and V holds
/// the accumulated right rotations.
SvdResult one_sided_jacobi(Matrix w, double tol, int max_sweeps) {
  const Index n = w.cols();
  Matrix v = Matrix::identity(n);

  // Normalize the working scale to ~1: at extreme magnitudes (|A| near
  // 1e±150) the squared-norm products the rotations use underflow or
  // overflow and the sweeps never converge. Singular values are scaled
  // back at the end.
  const double input_fro = w.norm_fro();
  const double scale_back = (input_fro > 0.0) ? input_fro : 1.0;
  if (input_fro > 0.0) w *= 1.0 / input_fro;

  // Columns whose squared norm falls below this are numerically zero:
  // rotating them against each other only chases round-off and keeps the
  // sweep loop from ever converging on rank-deficient inputs.
  const double fro = (input_fro > 0.0) ? 1.0 : 0.0;
  const double tiny2 = (1e-15 * fro) * (1e-15 * fro);

  // Sweep over all column pairs until every pair is numerically
  // orthogonal: |aᵢᵀaⱼ| <= tol * ||aᵢ|| ||aⱼ||.
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        auto colp = w.col_span(p);
        auto colq = w.col_span(q);
        const double app = dot(colp, colp);
        const double aqq = dot(colq, colq);
        const double apq = dot(colp, colq);
        if (app <= tiny2 || aqq <= tiny2) continue;
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq)) continue;
        rotated = true;

        // Two-sided rotation angle for the 2x2 Gram block.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        for (std::size_t i = 0; i < colp.size(); ++i) {
          const double xp = colp[i], xq = colq[i];
          colp[i] = c * xp - s * xq;
          colq[i] = s * xp + c * xq;
        }
        double* vp = v.col_data(p);
        double* vq = v.col_data(q);
        for (Index i = 0; i < n; ++i) {
          const double xp = vp[i], xq = vq[i];
          vp[i] = c * xp - s * xq;
          vq[i] = s * xp + c * xq;
        }
      }
    }
    if (!rotated) break;
    if (sweep + 1 == max_sweeps) {
      throw ConvergenceError("one-sided Jacobi SVD exceeded sweep budget");
    }
  }

  SvdResult out;
  out.s = Vector(n);
  out.u = Matrix(w.rows(), n);
  out.v = std::move(v);
  const double tiny = 1e-15 * fro;
  for (Index j = 0; j < n; ++j) {
    const double norm = nrm2(w.col_span(j));
    out.s[j] = norm * scale_back;
    if (norm > tiny) {
      auto src = w.col_span(j);
      double* dst = out.u.col_data(j);
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i] / norm;
    }
    // Negligible column: the sweep guard above never rotated it, so its
    // direction is round-off junk — report σ but leave the U column
    // zero (same contract as the method-of-snapshots backend).
  }
  sort_descending(out);
  return out;
}

}  // namespace

SvdResult svd_jacobi(const Matrix& a, const SvdOptions& opts) {
  PARSVD_REQUIRE(!a.empty(), "svd of an empty matrix");
  const Index m = a.rows();
  const Index n = a.cols();

  SvdResult out;
  if (m >= n) {
    // QR preconditioning: Jacobi on the small n x n factor R, then lift
    // U back through Q. Cuts the rotation cost from O(m n^2 sweeps) to
    // O(n^3 sweeps) for tall matrices.
    if (m > 2 * n) {
      QrResult qr = qr_thin_raw(a);
      out = one_sided_jacobi(std::move(qr.r), opts.tol, opts.max_sweeps);
      out.u = matmul(qr.q, out.u);
    } else {
      out = one_sided_jacobi(a, opts.tol, opts.max_sweeps);
    }
  } else {
    // Wide matrix: factor the transpose and swap factors.
    SvdOptions o = opts;
    o.rank = 0;
    out = svd_jacobi(a.transposed(), o);
    std::swap(out.u, out.v);
  }
  truncate(out, opts.rank);
  return out;
}

SvdResult svd_method_of_snapshots_right(const Matrix& a,
                                        const SvdOptions& opts) {
  PARSVD_REQUIRE(!a.empty(), "svd of an empty matrix");
  // Gram matrix AᵀA = V Σ² Vᵀ; eigh gives descending eigenvalues and,
  // with a rank, only that many pairs.
  EighOptions eopts;
  eopts.method = opts.eigh_method;
  eopts.rank = opts.rank;
  EighResult eig = eigh(gram(a), eopts);

  SvdResult out;
  const Index k = eig.values.size();
  out.s = Vector(k);
  // Eigenvalues of a Gram matrix are >= 0 in exact arithmetic; clamp
  // round-off negatives.
  for (Index j = 0; j < k; ++j) {
    out.s[j] = std::sqrt(std::max(eig.values[j], 0.0));
  }
  out.v = std::move(eig.vectors);
  return out;
}

SvdResult svd_method_of_snapshots(const Matrix& a, const SvdOptions& opts) {
  SvdResult out = svd_method_of_snapshots_right(a, opts);
  const Index k = out.s.size();

  // U = A V Σ⁻¹ for the kept columns, computed only for numerically
  // nonzero singular values.
  const double cutoff = (k > 0 ? out.s[0] : 0.0) * 1e-14;
  out.u = matmul(a, out.v);
  for (Index j = 0; j < k; ++j) {
    if (out.s[j] > cutoff && out.s[j] > 0.0) {
      scal(1.0 / out.s[j], out.u.col_span(j));
    } else {
      auto col = out.u.col_span(j);
      std::fill(col.begin(), col.end(), 0.0);
    }
  }
  return out;
}

SvdResult svd(const Matrix& a, const SvdOptions& opts) {
  switch (opts.method) {
    case SvdMethod::Jacobi:
      return svd_jacobi(a, opts);
    case SvdMethod::MethodOfSnapshots:
      return svd_method_of_snapshots(a, opts);
    case SvdMethod::GolubKahan:
      return svd_golub_kahan(a, opts);
  }
  throw ConfigError("unknown SVD method");
}

Vector singular_values(const Matrix& a) {
  return svd_jacobi(a, {}).s;
}

Matrix pinv(const Matrix& a, double rcond) {
  SvdResult f = svd_jacobi(a, {});
  const double cutoff = (f.s.size() > 0 ? f.s[0] : 0.0) * rcond;
  // A⁺ = V Σ⁺ Uᵀ.
  Matrix vs = f.v;
  for (Index j = 0; j < vs.cols(); ++j) {
    const double sj = f.s[j];
    const double inv = (sj > cutoff && sj > 0.0) ? 1.0 / sj : 0.0;
    scal(inv, vs.col_span(j));
  }
  return matmul(vs, f.u, Trans::No, Trans::Yes);
}

void fix_svd_signs(Matrix& u, Matrix& v) {
  PARSVD_REQUIRE(u.cols() == v.cols(), "fix_svd_signs: column count mismatch");
  for (Index j = 0; j < u.cols(); ++j) {
    double best = 0.0;
    Index best_i = 0;
    const double* uc = u.col_data(j);
    for (Index i = 0; i < u.rows(); ++i) {
      if (std::fabs(uc[i]) > best) {
        best = std::fabs(uc[i]);
        best_i = i;
      }
    }
    if (uc[best_i] < 0.0) {
      scal(-1.0, u.col_span(j));
      scal(-1.0, v.col_span(j));
    }
  }
}

void fix_mode_signs(Matrix& u) {
  for (Index j = 0; j < u.cols(); ++j) {
    double best = 0.0;
    Index best_i = 0;
    const double* uc = u.col_data(j);
    for (Index i = 0; i < u.rows(); ++i) {
      if (std::fabs(uc[i]) > best) {
        best = std::fabs(uc[i]);
        best_i = i;
      }
    }
    if (uc[best_i] < 0.0) scal(-1.0, u.col_span(j));
  }
}

}  // namespace parsvd
