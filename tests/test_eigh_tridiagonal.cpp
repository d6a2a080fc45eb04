// Tridiagonal eigensolver tests: invariants, known cases, and
// cross-validation against the independently-implemented Jacobi backend —
// two unrelated algorithms agreeing on random inputs is the strongest
// correctness evidence available without a reference LAPACK. The partial
// path (EighOptions::rank = k < n: QL values, inverse iteration, one
// back-transform) is checked against the full QL path and against Jacobi,
// including the round-off clusters of rank-deficient Gram matrices.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/eigh.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::expect_matrix_near;
using testing::expect_vector_near;
using testing::naive_matmul;
using testing::ortho_defect;
using testing::random_matrix;
using testing::random_symmetric;

EighOptions tri(Index rank = 0) {
  EighOptions opts;
  opts.method = EighMethod::Tridiagonal;
  opts.rank = rank;
  return opts;
}

/// Q diag(values) Qᵀ for a random orthogonal Q.
Matrix with_spectrum(const Vector& values, std::uint64_t seed) {
  const Index n = values.size();
  const Matrix q = qr_thin(random_matrix(n, n, seed)).q;
  Matrix qd = q;
  for (Index j = 0; j < n; ++j) scal(values[j], qd.col_span(j));
  Matrix a = matmul(qd, q, Trans::No, Trans::Yes);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < j; ++i) a(j, i) = a(i, j);
  }
  return a;
}

/// ‖A V − V Λ‖_F / ‖A‖_F.
double relative_residual(const Matrix& a, const EighResult& e) {
  Matrix r = naive_matmul(a, e.vectors);
  for (Index j = 0; j < e.vectors.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) {
      r(i, j) -= e.vectors(i, j) * e.values[j];
    }
  }
  return r.norm_fro() / a.norm_fro();
}

/// The k largest pairs must match the leading k of a full solve: values
/// to `tol`·‖A‖, vectors up to sign (the spectrum must be simple).
void expect_matches_leading(const EighResult& part, const EighResult& full,
                            Index k, double tol, double norm) {
  ASSERT_EQ(part.values.size(), k);
  ASSERT_EQ(part.vectors.cols(), k);
  ASSERT_EQ(part.vectors.rows(), full.vectors.rows());
  for (Index j = 0; j < k; ++j) {
    EXPECT_NEAR(part.values[j], full.values[j], tol * norm) << "pair " << j;
    const double c =
        std::fabs(dot(part.vectors.col_span(j), full.vectors.col_span(j)));
    EXPECT_GT(c, 1.0 - 1e-9) << "pair " << j;
  }
}

TEST(EighTridiagonal, DiagonalMatrix) {
  const EighResult e = eigh(Matrix::diag(Vector{3, 1, 2}), tri());
  EXPECT_DOUBLE_EQ(e.values[0], 3.0);
  EXPECT_DOUBLE_EQ(e.values[1], 2.0);
  EXPECT_DOUBLE_EQ(e.values[2], 1.0);
}

TEST(EighTridiagonal, Known2x2) {
  const EighResult e = eigh(Matrix{{2, 1}, {1, 2}}, tri());
  EXPECT_NEAR(e.values[0], 3.0, 1e-14);
  EXPECT_NEAR(e.values[1], 1.0, 1e-14);
}

TEST(EighTridiagonal, OneByOne) {
  const EighResult e = eigh(Matrix{{-5.0}}, tri());
  EXPECT_DOUBLE_EQ(e.values[0], -5.0);
}

TEST(EighTridiagonal, AlreadyTridiagonal) {
  // The discrete 1-D Laplacian has eigenvalues 2 - 2cos(kπ/(n+1)).
  const Index n = 12;
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -1.0;
    }
  }
  const EighResult e = eigh(a, tri());
  constexpr double kPi = 3.14159265358979323846;
  for (Index k = 0; k < n; ++k) {
    // Descending order → the k-th value uses mode (n - k).
    const double expected =
        2.0 - 2.0 * std::cos(static_cast<double>(n - k) * kPi /
                             static_cast<double>(n + 1));
    EXPECT_NEAR(e.values[k], expected, 1e-12) << "k = " << k;
  }
}

TEST(EighTridiagonal, VectorsOrthonormal) {
  const EighResult e = eigh(random_symmetric(25, 81), tri());
  EXPECT_LT(ortho_defect(e.vectors), 1e-12);
}

TEST(EighTridiagonal, Reconstruction) {
  const Matrix a = random_symmetric(18, 82);
  const EighResult e = eigh(a, tri());
  const Matrix vd = naive_matmul(e.vectors, Matrix::diag(e.values));
  expect_matrix_near(naive_matmul(vd, e.vectors.transposed()), a, 1e-11);
}

TEST(EighTridiagonal, AgreesWithJacobiOnSpectra) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Matrix a = random_symmetric(20, 900 + seed);
    const EighResult ej = eigh(a);  // Jacobi default
    const EighResult et = eigh(a, tri());
    expect_vector_near(et.values, ej.values, 1e-11, "spectra");
  }
}

TEST(EighTridiagonal, AgreesWithJacobiOnSubspaces) {
  const Matrix a = random_symmetric(15, 83);
  const EighResult ej = eigh(a);
  const EighResult et = eigh(a, tri());
  // Eigenvectors agree up to sign for simple spectra.
  for (Index j = 0; j < 15; ++j) {
    const double c =
        std::fabs(dot(ej.vectors.col_span(j), et.vectors.col_span(j)));
    EXPECT_GT(c, 1.0 - 1e-9) << "pair " << j;
  }
}

TEST(EighTridiagonal, RepeatedEigenvalues) {
  Matrix a = 2.0 * Matrix::identity(4);
  a(0, 0) = 5.0;
  const EighResult e = eigh(a, tri());
  EXPECT_NEAR(e.values[0], 5.0, 1e-13);
  for (Index i = 1; i < 4; ++i) EXPECT_NEAR(e.values[i], 2.0, 1e-13);
  EXPECT_LT(ortho_defect(e.vectors), 1e-12);
}

TEST(EighTridiagonal, NegativeSpectra) {
  Matrix a = random_symmetric(10, 84);
  a -= 100.0 * Matrix::identity(10);
  const EighResult e = eigh(a, tri());
  for (Index i = 0; i < 10; ++i) EXPECT_LT(e.values[i], 0.0);
  const Matrix vd = naive_matmul(e.vectors, Matrix::diag(e.values));
  expect_matrix_near(naive_matmul(vd, e.vectors.transposed()), a, 1e-9);
}

TEST(EighTridiagonal, RejectsNonSquareAndAsymmetric) {
  EXPECT_THROW(eigh(Matrix(3, 4), tri()), Error);
  EXPECT_THROW(eigh(Matrix{{1, 2}, {5, 1}}, tri()), Error);
}

TEST(EighTridiagonalPartial, MatchesFullAndJacobiOnRandomMatrices) {
  for (const Index n : {20, 64, 150}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const Matrix a = random_symmetric(n, 2000 + seed);
      const EighResult full = eigh(a, tri());
      const EighResult jac = eigh(a);
      for (const Index k : {Index{1}, Index{5}, n / 2, n - 1}) {
        const EighResult part = eigh(a, tri(k));
        expect_matches_leading(part, full, k, 1e-13, a.norm_fro());
        expect_matches_leading(part, jac, k, 1e-12, a.norm_fro());
        EXPECT_LT(ortho_defect(part.vectors), 1e-13) << "n " << n << " k " << k;
        EXPECT_LT(relative_residual(a, part), 1e-14) << "n " << n << " k " << k;
      }
    }
  }
}

TEST(EighTridiagonalPartial, GradedSpectrum) {
  // Eigenvalues 1, 0.5, ..., down to 2^-59: fourteen decades.
  const Index n = 60;
  Vector lam(n);
  for (Index j = 0; j < n; ++j) lam[j] = std::ldexp(1.0, -static_cast<int>(j));
  const Matrix a = with_spectrum(lam, 41);
  const EighResult full = eigh(a, tri());
  const EighResult jac = eigh(a);
  const EighResult part = eigh(a, tri(12));
  // Absolute accuracy eps·‖A‖ is what a tridiagonal QL promises.
  for (Index j = 0; j < 12; ++j) EXPECT_NEAR(part.values[j], lam[j], 1e-14);
  // Gaps of the leading twelve are ≥ 2^-12 ≫ eps: vectors are determined.
  expect_matches_leading(part, full, 12, 1e-14, 1.0);
  expect_matches_leading(part, jac, 12, 1e-14, 1.0);
  EXPECT_LT(ortho_defect(part.vectors), 1e-13);
  EXPECT_LT(relative_residual(a, part), 1e-14);
}

TEST(EighTridiagonalPartial, RepeatedEigenvaluesStayOrthonormal) {
  // Three-fold 7, four-fold 3, then a simple tail: the kept set cuts
  // through the middle of the four-fold cluster.
  const Index n = 30;
  Vector lam(n);
  for (Index j = 0; j < n; ++j) {
    lam[j] = (j < 3) ? 7.0 : (j < 7) ? 3.0 : 1.0 / static_cast<double>(j);
  }
  const Matrix a = with_spectrum(lam, 42);
  const EighResult part = eigh(a, tri(5));
  const EighResult jac = eigh(a);
  for (Index j = 0; j < 5; ++j) EXPECT_NEAR(part.values[j], lam[j], 1e-13);
  for (Index j = 0; j < 5; ++j) EXPECT_NEAR(jac.values[j], lam[j], 1e-13);
  EXPECT_LT(ortho_defect(part.vectors), 1e-13);
  EXPECT_LT(relative_residual(a, part), 1e-14);
  // The three kept 7-vectors span the same space as Jacobi's: the
  // projector difference vanishes.
  Matrix p = matmul(part.vectors.left_cols(3), part.vectors.left_cols(3),
                    Trans::No, Trans::Yes);
  p -= matmul(jac.vectors.left_cols(3), jac.vectors.left_cols(3), Trans::No,
              Trans::Yes);
  EXPECT_LT(p.norm_max(), 1e-12);
}

TEST(EighTridiagonalPartial, IdentityGivesAnyOrthonormalBasis) {
  for (const Index n : {2, 9, 40}) {
    const Matrix a = Matrix::identity(n);
    for (const Index k : {Index{1}, n / 2, n - 1}) {
      const EighResult part = eigh(a, tri(k));
      ASSERT_EQ(part.vectors.cols(), k);
      for (Index j = 0; j < k; ++j) EXPECT_DOUBLE_EQ(part.values[j], 1.0);
      EXPECT_LT(ortho_defect(part.vectors), 1e-14) << "n " << n << " k " << k;
    }
  }
}

TEST(EighTridiagonalPartial, RankDeficientGramRoundOffCluster) {
  // G = BᵀB with B of rank 60 among 100 columns, scaled like the Burgers
  // block (λ₁ ~ 2e4): the trailing 40 eigenvalues are round-off with
  // relative gaps far below eps. Keeping 50 pairs cuts ten vectors out
  // of that cluster; they must come out orthonormal, not parallel.
  const Index n = 100;
  const Index r = 60;
  Matrix b = matmul(random_matrix(400, r, 43), random_matrix(r, n, 44));
  b *= 3.0;
  const Matrix g = gram(b);
  const double gnorm = g.norm_fro();
  for (const Index k : {Index{50}, Index{61}, n - 1}) {
    const EighResult part = eigh(g, tri(k));
    EXPECT_LE(ortho_defect(part.vectors), 1e-12) << "k " << k;
    EXPECT_LE(relative_residual(g, part), 1e-12) << "k " << k;
    for (Index j = r; j < k; ++j) {
      EXPECT_LT(std::fabs(part.values[j]), 1e-12 * gnorm) << "pair " << j;
    }
  }
  // The 60 signal pairs agree with the full solve (their gaps are O(‖G‖)).
  const EighResult full = eigh(g, tri());
  const EighResult part = eigh(g, tri(50));
  for (Index j = 0; j < 50; ++j) {
    EXPECT_NEAR(part.values[j], full.values[j], 1e-12 * gnorm);
  }
}

TEST(EighTridiagonalPartial, RoundOffClusterInOneUnreducedBlock) {
  // T itself (a tridiagonal input passes the reduction unchanged): ten
  // O(1e4) pairs, then a 40 x 40 block of round-off entries whose
  // couplings sit just above the deflation floor eps·‖T‖, so the block
  // stays unreduced. Its eigenvalues are spaced ~5e-12 apart but QL
  // gets them only to eps·‖T‖ ≈ 2.5e-11: the kept twenty of them must
  // be treated as one cluster (by ‖T‖, not the block's own norm) and
  // reorthogonalized, or their vectors collapse onto each other.
  const Index n = 50;
  Rng rng(48);
  Matrix t(n, n);
  for (Index i = 0; i < 10; ++i) {
    t(i, i) = 1e4 * static_cast<double>(i + 1);
    if (i + 1 < 10) t(i, i + 1) = t(i + 1, i) = 1e3;
  }
  for (Index i = 10; i < n; ++i) {
    t(i, i) = 1e-12 * rng.uniform(-1.0, 1.0);
    if (i + 1 < n) t(i, i + 1) = t(i + 1, i) = 5e-11 * rng.uniform(1.0, 1.5);
  }
  const EighResult part = eigh(t, tri(30));
  EXPECT_LE(ortho_defect(part.vectors), 1e-12);
  EXPECT_LE(relative_residual(t, part), 1e-12);
  const EighResult jac = eigh(t);
  for (Index j = 0; j < 10; ++j) {
    EXPECT_NEAR(part.values[j], jac.values[j], 1e-11 * t.norm_fro());
  }
}

TEST(EighTridiagonalPartial, Edges) {
  // n = 1: any rank returns the single pair.
  for (const Index k : {0, 1, 3}) {
    const EighResult e = eigh(Matrix{{-4.0}}, tri(k));
    ASSERT_EQ(e.values.size(), 1);
    EXPECT_DOUBLE_EQ(e.values[0], -4.0);
    EXPECT_DOUBLE_EQ(std::fabs(e.vectors(0, 0)), 1.0);
  }
  // n = 2, k = 1: the larger root of [[2, 1], [1, 2]].
  const EighResult two = eigh(Matrix{{2, 1}, {1, 2}}, tri(1));
  ASSERT_EQ(two.values.size(), 1);
  EXPECT_NEAR(two.values[0], 3.0, 1e-14);
  EXPECT_NEAR(std::fabs(two.vectors(0, 0)), std::sqrt(0.5), 1e-14);
  EXPECT_NEAR(two.vectors(0, 0), two.vectors(1, 0), 1e-14);
  // k = n and rank 0 are the full path; k > n too.
  const Matrix a = random_symmetric(12, 45);
  const EighResult full = eigh(a, tri());
  for (const Index k : {0, 12, 20}) {
    const EighResult e = eigh(a, tri(k));
    ASSERT_EQ(e.values.size(), 12);
    expect_vector_near(e.values, full.values, 0.0);
    expect_matrix_near(e.vectors, full.vectors, 0.0);
  }
  // k = 1 on a larger matrix.
  const EighResult one = eigh(a, tri(1));
  expect_matches_leading(one, full, 1, 1e-13, a.norm_fro());
}

TEST(EighTridiagonalPartial, JacobiRankTruncates) {
  const Matrix a = random_symmetric(16, 46);
  const EighResult full = eigh(a);
  EighOptions opts;
  opts.rank = 4;
  const EighResult part = eigh(a, opts);
  ASSERT_EQ(part.values.size(), 4);
  expect_vector_near(part.values, full.values.head(4), 0.0);
  expect_matrix_near(part.vectors, full.vectors.left_cols(4), 0.0);
}

TEST(EighTridiagonalPartial, MethodOfSnapshotsRankMatchesTruncatedFull) {
  const Matrix a = matmul(random_matrix(300, 40, 47),
                          Matrix::diag([] {
                            Vector s(40);
                            for (Index j = 0; j < 40; ++j) {
                              s[j] = std::pow(0.7, static_cast<double>(j));
                            }
                            return s;
                          }()));
  SvdOptions opts;
  opts.method = SvdMethod::MethodOfSnapshots;
  opts.eigh_method = EighMethod::Tridiagonal;
  const SvdResult full = svd(a, opts);
  for (const Index k : {1, 7, 20}) {
    opts.rank = k;
    const SvdResult part = svd(a, opts);
    ASSERT_EQ(part.u.cols(), k);
    ASSERT_EQ(part.s.size(), k);
    ASSERT_EQ(part.v.cols(), k);
    ASSERT_EQ(part.u.rows(), a.rows());
    for (Index j = 0; j < k; ++j) {
      EXPECT_NEAR(part.s[j], full.s[j], 1e-12 * full.s[0]) << "k " << k;
      // σ_j spread 0.7^j: gaps ≥ 30% relative, vectors are determined.
      const double cu = std::fabs(dot(part.u.col_span(j), full.u.col_span(j)));
      const double cv = std::fabs(dot(part.v.col_span(j), full.v.col_span(j)));
      EXPECT_GT(cu, 1.0 - 1e-10) << "k " << k << " j " << j;
      EXPECT_GT(cv, 1.0 - 1e-10) << "k " << k << " j " << j;
    }
    // The right-only entry returns the same Σ and V and no U.
    const SvdResult right = svd_method_of_snapshots_right(a, opts);
    EXPECT_TRUE(right.u.empty());
    expect_vector_near(right.s, part.s, 0.0);
    expect_matrix_near(right.v, part.v, 0.0);
  }
}

class EighTridiagonalSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EighTridiagonalSweep, CrossValidatesJacobi) {
  const auto [n, seed] = GetParam();
  const Matrix a = random_symmetric(n, 1000 + seed);
  const EighResult ej = eigh(a);
  const EighResult et = eigh(a, tri());
  expect_vector_near(et.values, ej.values,
                     1e-10 * std::max(1.0, a.norm_fro()));
  EXPECT_LT(ortho_defect(et.vectors), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EighTridiagonalSweep,
    ::testing::Combine(::testing::Values(2, 3, 8, 17, 40, 64),
                       ::testing::Values(0u, 1u, 2u)));

}  // namespace
}  // namespace parsvd
