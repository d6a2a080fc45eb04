// Symmetric eigendecomposition via Householder tridiagonalization — the
// LAPACK xSYEV/xSYEVX route, written against Golub & Van Loan §8.3 and
// independent of the Jacobi backend in eigh.cpp so the two can
// cross-validate each other in the test suite.
//
//   1. A = Q T Qᵀ by a blocked reduction (dsytrd/dlatrd): per column one
//      symmetric matrix-vector product, per panel one rank-2·nb update
//      through the packed GEMM. Q stays as its reflectors.
//   2. All pairs: Q is formed from the reflectors and implicit-shift QL
//      (tql2, Bowdler–Martin–Reinsch–Wilkinson) accumulates T's
//      rotations into it.
//   3. The k largest pairs (0 < rank < n): QL without vectors gives the
//      eigenvalues, inverse iteration on T (dstein) the k wanted vectors
//      — clusters reorthogonalized — and one blocked compact-WY apply of
//      Q lifts them back. Cost: the reduction plus O(n²k), not the O(n³)
//      of the accumulated rotations.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "linalg/blas.hpp"
#include "linalg/eigh.hpp"
#include "linalg/gemm_engine.hpp"
#include "linalg/qr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace parsvd {
namespace {

using detail::dot_lanes;

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Panel width of the reduction and of the reflector applies.
constexpr Index kTridiagBlock = 32;
/// Column-block width of the reduction's trailing rank-2·nb update.
constexpr Index kUpdateBlock = 96;

std::size_t at(Index i) { return static_cast<std::size_t>(i); }

void add_gemm_flops(std::uint64_t flops) {
  static obs::Counter& counter =
      obs::Registry::global().counter("linalg.gemm.flops");
  counter.add(flops);
}

std::uint64_t gemm_cost(Index m, Index n, Index k) {
  return 2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(k);
}

/// A = Q T Qᵀ in LAPACK dsytrd's lower layout: Q = H_0 ⋯ H_{n−2}, and
/// reflector i has an implicit unit on row i+1 and its tail in
/// a(i+2:n, i). T has diagonal d and subdiagonal e (e[i] = T(i+1, i),
/// e[n−1] = 0).
struct Tridiagonal {
  Matrix a;
  std::vector<double> d;
  std::vector<double> e;
  std::vector<double> tau;
};

// Eight-lane loops on the engine's generic vector type. Loads and
// stores go through memcpy (the operands are unaligned), and no vector
// crosses a function boundary, whose ABI would depend on -march.
using detail::VecD8;

/// y −= a·ca + b·cb over n entries.
void sub_axpy2(double* y, const double* a, double ca, const double* b,
               double cb, Index n) {
  Index r = 0;
  for (; r + 8 <= n; r += 8) {
    VecD8 yr, ar, br;
    std::memcpy(&yr, y + r, sizeof(yr));
    std::memcpy(&ar, a + r, sizeof(ar));
    std::memcpy(&br, b + r, sizeof(br));
    yr -= ar * ca + br * cb;
    std::memcpy(y + r, &yr, sizeof(yr));
  }
  for (; r < n; ++r) y[r] -= a[r] * ca + b[r] * cb;
}

/// y := A v for the len x len symmetric matrix whose lower triangle
/// starts at `a` (leading dim ld). One pass over the triangle, two
/// columns at a time: each column feeds both its row's dot and its own
/// axpy, so the triangle is read once.
void symv_lower(const double* a, Index ld, Index len, const double* v,
                double* y) {
  std::fill_n(y, len, 0.0);
  Index j = 0;
  for (; j + 1 < len; j += 2) {
    const double* c0 = a + j * ld;
    const double* c1 = c0 + ld;
    const double v0 = v[j];
    const double v1 = v[j + 1];
    // The 2x2 diagonal head, then rows j+2.. of both columns.
    double s0 = c0[j] * v0 + c0[j + 1] * v1;
    double s1 = c0[j + 1] * v0 + c1[j + 1] * v1;
    VecD8 a0 = {};
    VecD8 a1 = {};
    Index r = j + 2;
    for (; r + 8 <= len; r += 8) {
      VecD8 x0, x1, vr, yr;
      std::memcpy(&x0, c0 + r, sizeof(x0));
      std::memcpy(&x1, c1 + r, sizeof(x1));
      std::memcpy(&vr, v + r, sizeof(vr));
      std::memcpy(&yr, y + r, sizeof(yr));
      yr += x0 * v0 + x1 * v1;
      a0 += x0 * vr;
      a1 += x1 * vr;
      std::memcpy(y + r, &yr, sizeof(yr));
    }
    for (; r < len; ++r) {
      y[r] += c0[r] * v0 + c1[r] * v1;
      s0 += c0[r] * v[r];
      s1 += c1[r] * v[r];
    }
    for (int l = 0; l < 8; ++l) {
      s0 += a0[l];
      s1 += a1[l];
    }
    y[j] += s0;
    y[j + 1] += s1;
  }
  if (j < len) y[j] += a[j * ld + j] * v[j];
}

/// Blocked reduction of the symmetric matrix `a` (lower triangle read) to
/// tridiagonal form (LAPACK dsytrd with dlatrd panels). Within a panel,
/// column i is first brought up to date with the panel's earlier
/// reflectors, its reflector v is generated, and
///   w = τ (A₂₂ v − V (Wᵀ v) − W (Vᵀ v)),  w −= ½ τ (wᵀv) v
/// is formed against the trailing matrix as it stood at the panel start.
/// After the panel the trailing lower triangle takes A −= V Wᵀ + W Vᵀ in
/// column blocks through the packed engine.
Tridiagonal tridiagonalize(Matrix a) {
  const Index n = a.rows();
  Tridiagonal t;
  t.d.assign(at(n), 0.0);
  t.e.assign(at(n), 0.0);
  t.tau.assign(at(std::max<Index>(n - 1, 0)), 0.0);
  Matrix w(n, kTridiagBlock);
  std::vector<double> vtv(at(kTridiagBlock)), wtv(at(kTridiagBlock));
  std::uint64_t flops = 0;

  for (Index i0 = 0; i0 < n; i0 += kTridiagBlock) {
    const Index nb = std::min(kTridiagBlock, n - i0);
    for (Index j = 0; j < nb; ++j) {
      const Index i = i0 + j;
      double* ci = a.col_data(i);
      // a(i:n, i) −= V(i:n, 0:j) W(i, 0:j)ᵀ + W(i:n, 0:j) V(i, 0:j)ᵀ.
      for (Index l = 0; l < j; ++l) {
        const double* vl = a.col_data(i0 + l);
        const double* wl = w.col_data(l);
        sub_axpy2(ci + i, vl + i, wl[i], wl + i, vl[i], n - i);
      }
      t.d[at(i)] = ci[i];
      if (i + 1 == n) break;

      const Index len = n - i - 1;  // rows i+1 .. n−1
      const detail::Reflector h = detail::make_reflector(
          ci[i + 1], {ci + i + 2, static_cast<std::size_t>(len - 1)});
      t.e[at(i)] = h.beta;
      t.tau[at(i)] = h.tau;
      ci[i + 1] = 1.0;  // unit of v while the panel is open
      const double* v = ci + i + 1;
      double* wj = w.col_data(j) + i + 1;
      if (h.tau == 0.0) {
        std::fill_n(wj, len, 0.0);
        continue;
      }
      symv_lower(a.col_data(i + 1) + i + 1, n, len, v, wj);
      for (Index l = 0; l < j; ++l) {
        vtv[at(l)] = dot_lanes(a.col_data(i0 + l) + i + 1, v, len);
        wtv[at(l)] = dot_lanes(w.col_data(l) + i + 1, v, len);
      }
      for (Index l = 0; l < j; ++l) {
        sub_axpy2(wj, a.col_data(i0 + l) + i + 1, wtv[at(l)],
                  w.col_data(l) + i + 1, vtv[at(l)], len);
      }
      for (Index r = 0; r < len; ++r) wj[r] *= h.tau;
      const double alpha = -0.5 * h.tau * dot_lanes(wj, v, len);
      for (Index r = 0; r < len; ++r) wj[r] += alpha * v[r];
    }

    // Trailing update of the lower triangle, one column block at a time
    // (each block also updates its diagonal square's unused upper part).
    const Index t0 = i0 + nb;
    const double* vp = a.col_data(i0);
    for (Index c0 = t0; c0 < n; c0 += kUpdateBlock) {
      const Index cols = std::min(kUpdateBlock, n - c0);
      const Index rows = n - c0;
      double* c = a.col_data(c0) + c0;
      detail::gemm_accumulate(Trans::No, Trans::Yes, rows, cols, nb, -1.0,
                              vp + c0, n, w.data() + c0, n, c, n,
                              /*allow_parallel=*/false);
      detail::gemm_accumulate(Trans::No, Trans::Yes, rows, cols, nb, -1.0,
                              w.data() + c0, n, vp + c0, n, c, n,
                              /*allow_parallel=*/false);
      flops += 2 * gemm_cost(rows, cols, nb);
    }
    for (Index j = 0; j < nb && i0 + j + 1 < n; ++j) {
      a(i0 + j + 1, i0 + j) = t.e[at(i0 + j)];
    }
  }
  add_gemm_flops(flops);
  t.a = std::move(a);
  return t;
}

/// C := Q C for an operand with n rows, applying Q's reflectors in
/// compact-WY panels through the packed engine, last panel first. With
/// `from_identity` C is the identity on entry: panel j0 only meets the
/// columns j0+1.. it can have filled (LAPACK dorgtr's saving).
void apply_q(const Tridiagonal& t, Matrix& c, bool from_identity) {
  const Index n = t.a.rows();
  const Index k = n - 1;  // reflectors, acting on rows 1..n−1
  if (k < 2) return;      // n ≤ 2: every reflector is the identity
  Matrix tf(kTridiagBlock, kTridiagBlock);
  std::uint64_t flops = 0;
  const Index nblocks = (k + kTridiagBlock - 1) / kTridiagBlock;
  for (Index blk = nblocks - 1; blk >= 0; --blk) {
    const Index j0 = blk * kTridiagBlock;
    const Index jb = std::min(kTridiagBlock, k - j0);
    const Index m = k - j0;  // rows j0+1 .. n−1
    const double* v1 = t.a.col_data(j0) + j0 + 1;
    detail::build_wy_t(v1, n, m, jb, t.tau.data() + j0, tf.data(),
                       kTridiagBlock);
    const Index col0 = from_identity ? j0 + 1 : 0;
    const Index nc = c.cols() - col0;
    detail::apply_wy(v1, n, m, jb, tf.data(), kTridiagBlock,
                     /*transpose=*/false, c.col_data(col0) + j0 + 1, n, nc,
                     m - jb);
    flops += 2 * gemm_cost(jb, nc, m);
  }
  add_gemm_flops(flops);
}

/// sqrt(f² + g²) from the plain sum of squares when that sum is a normal
/// number, std::hypot (several times slower) otherwise: the QL sweep
/// takes one per rotation, and without vectors they dominate its cost.
double pythag(double f, double g) {
  using limits = std::numeric_limits<double>;
  const double ss = f * f + g * g;
  if (ss >= limits::min() && ss <= limits::max()) return std::sqrt(ss);
  return std::hypot(f, g);
}

/// Implicit-shift QL iteration on the tridiagonal (d, e) (e[i] couples
/// rows i and i+1; e[n−1] is ignored), accumulating the rotations into
/// z when it is given. On return d holds the eigenvalues, unsorted; an
/// eigenvalue stays within the diagonal block its index started in
/// wherever e was exactly zero on entry.
void tql2(std::vector<double>& d, std::vector<double>& e, Matrix* z) {
  const auto n = static_cast<Index>(d.size());
  if (n <= 1) return;
  e[at(n - 1)] = 0.0;

  // Absolute deflation floor: rank-deficient inputs (e.g. Gram matrices
  // of low-rank data) leave trailing blocks whose d AND e entries are
  // all round-off noise ~ eps*||A||; the relative test |e| <= eps*dd
  // never fires there and the sweep stagnates. Dropping |e| <= eps*anorm
  // perturbs eigenvalues by at most eps*||A|| — the method's intrinsic
  // (backward-stable) accuracy.
  double anorm = 0.0;
  for (Index i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::fabs(d[at(i)]) + std::fabs(e[at(i)]));
  }
  const double abs_floor = kEps * anorm;

  constexpr int kMaxIter = 50;
  for (Index l = 0; l < n; ++l) {
    int iter = 0;
    Index m;
    do {
      // Look for a negligible subdiagonal element to split at.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[at(m)]) + std::fabs(d[at(m + 1)]);
        const double em = std::fabs(e[at(m)]);
        if (em <= kEps * dd || em <= abs_floor) {
          break;
        }
      }
      if (m != l) {
        if (++iter > kMaxIter) {
          throw ConvergenceError("tql2 exceeded its iteration budget");
        }
        // Wilkinson shift from the leading 2x2.
        double g = (d[at(l + 1)] - d[at(l)]) / (2.0 * e[at(l)]);
        double r = pythag(g, 1.0);
        g = d[at(m)] - d[at(l)] + e[at(l)] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        Index i = m - 1;
        for (; i >= l; --i) {
          double f = s * e[at(i)];
          const double b = c * e[at(i)];
          r = pythag(f, g);
          e[at(i + 1)] = r;
          if (r == 0.0) {
            // Deflate without finishing the sweep.
            d[at(i + 1)] -= p;
            e[at(m)] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[at(i + 1)] - p;
          r = (d[at(i)] - g) * s + 2.0 * c * b;
          p = s * r;
          d[at(i + 1)] = g + p;
          g = c * r - b;
          if (z != nullptr) {
            // Accumulate the rotation into the eigenvector matrix.
            double* zi = z->col_data(i);
            double* zi1 = z->col_data(i + 1);
            for (Index k = 0; k < n; ++k) {
              f = zi1[k];
              zi1[k] = s * zi[k] + c * f;
              zi[k] = c * zi[k] - s * f;
            }
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[at(l)] -= p;
        e[at(l)] = g;
        e[at(m)] = 0.0;
      }
    } while (m != l);
  }
}

/// Gaussian elimination with partial pivoting of the tridiagonal
/// T − σI (LAPACK dlagtf): P(T − σI) = L U, U upper triangular with
/// diagonals u0, u1, u2.
struct TridiagonalLu {
  std::vector<double> u0, u1, u2, mult;
  std::vector<char> swapped;
};

void factor_shifted(const double* d, const double* e, Index n, double sigma,
                    TridiagonalLu& lu) {
  lu.u0.assign(at(n), 0.0);
  lu.u1.assign(at(n), 0.0);
  lu.u2.assign(at(n), 0.0);
  lu.mult.assign(at(n), 0.0);
  lu.swapped.assign(at(n), 0);
  lu.u0[0] = d[0] - sigma;
  if (n > 1) lu.u1[0] = e[0];
  // Row k holds (u0[k], u1[k]) in columns k, k+1 on arrival; the next
  // original row holds (e[k], d[k+1] − σ, e[k+1]).
  for (Index k = 0; k + 1 < n; ++k) {
    const double sub = e[k];
    const double diag = d[k + 1] - sigma;
    const double sup = (k + 2 < n) ? e[k + 1] : 0.0;
    if (std::fabs(lu.u0[at(k)]) >= std::fabs(sub)) {
      const double m = (lu.u0[at(k)] != 0.0) ? sub / lu.u0[at(k)] : 0.0;
      lu.mult[at(k)] = m;
      lu.u0[at(k + 1)] = diag - m * lu.u1[at(k)];
      lu.u1[at(k + 1)] = sup;
    } else {
      const double m = lu.u0[at(k)] / sub;
      const double old_u1 = lu.u1[at(k)];
      lu.mult[at(k)] = m;
      lu.swapped[at(k)] = 1;
      lu.u0[at(k)] = sub;
      lu.u1[at(k)] = diag;
      lu.u2[at(k)] = sup;
      lu.u0[at(k + 1)] = old_u1 - m * diag;
      lu.u1[at(k + 1)] = -m * sup;
    }
  }
}

/// Solve P(T − σI) x = b in place. Pivots below `floor` in magnitude are
/// raised to it (sign kept): a perturbation of T − σI no larger than
/// the backward error of the eigenvalue itself.
void solve_shifted(const TridiagonalLu& lu, double floor, double* x,
                   Index n) {
  for (Index k = 0; k + 1 < n; ++k) {
    if (lu.swapped[at(k)]) std::swap(x[k], x[k + 1]);
    x[k + 1] -= lu.mult[at(k)] * x[k];
  }
  for (Index k = n - 1; k >= 0; --k) {
    double s = x[k];
    if (k + 1 < n) s -= lu.u1[at(k)] * x[k + 1];
    if (k + 2 < n) s -= lu.u2[at(k)] * x[k + 2];
    double p = lu.u0[at(k)];
    if (std::fabs(p) < floor) p = (p < 0.0) ? -floor : floor;
    x[k] = s / p;
  }
}

double norm_inf(const double* x, Index n) {
  double m = 0.0;
  for (Index i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

/// Eigenvectors of the unreduced block (d, e) of size n for the
/// eigenvalues `w` (ascending), by inverse iteration (LAPACK dstein).
/// Eigenvalues closer than 1e-3·‖T‖ to their predecessor form a cluster
/// whose iterates are reorthogonalized against the cluster's earlier
/// vectors; without that, round-off clusters (a rank-deficient Gram
/// matrix has dozens) return nearly parallel vectors. ‖T‖ is `onenrm`,
/// the norm of the whole tridiagonal, not of the block: QL's eigenvalues
/// are accurate to eps·‖T‖, so a block of round-off entries is one
/// cluster, however its own small entries are spread.
Matrix inverse_iteration(const double* d, const double* e, Index n,
                         const std::vector<double>& w, double onenrm,
                         Rng& rng) {
  const auto count = static_cast<Index>(w.size());
  Matrix z(n, count);
  if (n == 1) {
    for (Index j = 0; j < count; ++j) z(0, j) = 1.0;
    return z;
  }
  if (onenrm == 0.0) {
    // T = 0: the unit vectors are eigenvectors.
    for (Index j = 0; j < count; ++j) z(j, j) = 1.0;
    return z;
  }
  const double ortol = 1e-3 * onenrm;
  const double floor = kEps * onenrm;
  const double dtpcrt = std::sqrt(0.1 / static_cast<double>(n));
  constexpr int kMaxIts = 5;
  constexpr int kExtra = 2;

  TridiagonalLu lu;
  Index gpind = 0;
  double xjm = 0.0;
  for (Index j = 0; j < count; ++j) {
    double xj = w[at(j)];
    if (j > 0) {
      // Nudge exact ties apart by a relatively tiny amount.
      const double pertol = 10.0 * std::fabs(kEps * xj);
      if (xj - xjm < pertol) xj = xjm + pertol;
      if (std::fabs(xj - xjm) > ortol) gpind = j;
    }
    double* x = z.col_data(j);
    for (Index i = 0; i < n; ++i) x[i] = rng.uniform(-1.0, 1.0);
    factor_shifted(d, e, n, xj, lu);

    int its = 0;
    int nrmchk = 0;
    for (;;) {
      if (++its > kMaxIts) {
        throw ConvergenceError("inverse iteration did not converge");
      }
      // dstein's scaling: with the right-hand side at
      // n·max(eps·‖T‖, |u_nn|), a solve that grows it past dtpcrt has
      // converged.
      const double scale =
          static_cast<double>(n) *
          std::max(kEps * onenrm, std::fabs(lu.u0[at(n - 1)])) /
          norm_inf(x, n);
      scal(scale, std::span<double>(x, static_cast<std::size_t>(n)));
      solve_shifted(lu, floor, x, n);
      // Two Gram-Schmidt passes against the cluster's earlier vectors.
      for (int pass = 0; pass < 2 && gpind < j; ++pass) {
        for (Index i = gpind; i < j; ++i) {
          const double* zi = z.col_data(i);
          const double c = -dot_lanes(x, zi, n);
          for (Index r = 0; r < n; ++r) x[r] += c * zi[r];
        }
      }
      if (norm_inf(x, n) < dtpcrt) continue;
      if (++nrmchk < kExtra + 1) continue;
      break;
    }
    scal(1.0 / nrm2(std::span<const double>(x, static_cast<std::size_t>(n))),
         std::span<double>(x, static_cast<std::size_t>(n)));
    xjm = xj;
  }
  return z;
}

/// The `k` largest eigenpairs of A = Q T Qᵀ, eigenvalues descending.
EighResult largest_pairs(Tridiagonal& t, Index k) {
  const Index n = t.a.rows();
  // Split T where the QL deflation test already calls e negligible and
  // zero those entries: QL then keeps every eigenvalue at an index inside
  // its unreduced block, and the block alone supports its vector.
  double anorm = 0.0;
  double tnorm = 0.0;  // max row sum of |T|
  for (Index i = 0; i < n; ++i) {
    const double left = (i > 0) ? std::fabs(t.e[at(i - 1)]) : 0.0;
    anorm = std::max(anorm, std::fabs(t.d[at(i)]) + std::fabs(t.e[at(i)]));
    tnorm = std::max(tnorm,
                     std::fabs(t.d[at(i)]) + std::fabs(t.e[at(i)]) + left);
  }
  t.e[at(n - 1)] = 0.0;
  for (Index i = 0; i + 1 < n; ++i) {
    const double dd = std::fabs(t.d[at(i)]) + std::fabs(t.d[at(i + 1)]);
    const double ei = std::fabs(t.e[at(i)]);
    if (ei <= kEps * dd || ei <= kEps * anorm) t.e[at(i)] = 0.0;
  }

  std::vector<double> lambda = t.d;
  std::vector<double> off = t.e;
  tql2(lambda, off, nullptr);
  std::vector<Index> order(at(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(), [&lambda](Index a, Index b) {
    return lambda[at(a)] > lambda[at(b)];
  });
  std::vector<Index> column(at(n), -1);  // output column, -1 = not kept
  EighResult out;
  out.values = Vector(k);
  for (Index c = 0; c < k; ++c) {
    column[at(order[at(c)])] = c;
    out.values[c] = lambda[at(order[at(c)])];
  }

  Matrix y(n, k);
  Rng rng(0x5eed'3e16ULL);  // fixed start vectors: results are reproducible
  for (Index b0 = 0, b1 = 0; b0 < n; b0 = b1) {
    b1 = b0 + 1;
    while (b1 < n && t.e[at(b1 - 1)] != 0.0) ++b1;
    std::vector<Index> kept;
    for (Index i = b0; i < b1; ++i) {
      if (column[at(i)] >= 0) kept.push_back(i);
    }
    if (kept.empty()) continue;
    std::sort(kept.begin(), kept.end(), [&lambda](Index a, Index b) {
      return lambda[at(a)] < lambda[at(b)];
    });
    std::vector<double> w;
    for (const Index i : kept) w.push_back(lambda[at(i)]);
    const Matrix zb = inverse_iteration(t.d.data() + b0, t.e.data() + b0,
                                        b1 - b0, w, tnorm, rng);
    for (std::size_t g = 0; g < kept.size(); ++g) {
      std::copy_n(zb.col_data(static_cast<Index>(g)), b1 - b0,
                  y.col_data(column[at(kept[g])]) + b0);
    }
  }
  apply_q(t, y, /*from_identity=*/false);
  out.vectors = std::move(y);
  return out;
}

}  // namespace

EighResult eigh_tridiagonal(const Matrix& input, const EighOptions& opts) {
  PARSVD_REQUIRE(input.rows() == input.cols(),
                 "eigh requires a square matrix");
  const Index n = input.rows();
  if (n == 0) return {Vector{}, Matrix{}};
  PARSVD_TRACE_SCOPE("linalg.eigh");

  const double scale = std::max(input.norm_max(), 1.0);
  Matrix sym(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) {
      PARSVD_REQUIRE(std::fabs(input(i, j) - input(j, i)) <= 1e-8 * scale,
                     "eigh input is not symmetric");
      const double v = 0.5 * (input(i, j) + input(j, i));
      sym(i, j) = v;
      sym(j, i) = v;
    }
  }
  Tridiagonal t = tridiagonalize(std::move(sym));
  if (opts.rank > 0 && opts.rank < n) return largest_pairs(t, opts.rank);

  Matrix z = Matrix::identity(n);
  apply_q(t, z, /*from_identity=*/true);
  tql2(t.d, t.e, &z);

  std::vector<Index> order(at(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(), [&t](Index a, Index b) {
    return t.d[at(a)] > t.d[at(b)];
  });

  EighResult out;
  out.values = Vector(n);
  out.vectors = Matrix(n, n);
  for (Index k = 0; k < n; ++k) {
    const Index src = order[at(k)];
    out.values[k] = t.d[at(src)];
    out.vectors.set_col(k, z.col(src));
  }
  return out;
}

}  // namespace parsvd
