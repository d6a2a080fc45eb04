// Mixed-precision and compensated-accumulation contracts (DESIGN §12):
// the fp32 engine agrees with fp64 to fp32 accuracy on every transpose
// combination, the Mixed randomized-SVD path recovers fp64-grade singular
// values (within the 1e-10 refinement tolerance) on the Burgers snapshot
// matrix and the adversarial spiked spectrum, Single is measurably
// coarser, compensated dot/Gram survive catastrophic cancellation that
// naive fp64 summation loses entirely.
#include <gtest/gtest.h>

#include <cmath>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "test_utils.hpp"
#include "workloads/burgers.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using workloads::synthetic_low_rank;

MatrixF random_f32(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  return to_single(Matrix::gaussian(rows, cols, rng));
}

// Largest per-sigma relative deviation between two results' spectra.
double max_sigma_rel_err(const SvdResult& ref, const SvdResult& got) {
  EXPECT_EQ(ref.s.size(), got.s.size());
  double err = 0.0;
  for (Index i = 0; i < ref.s.size(); ++i) {
    err = std::max(err, std::abs(got.s[i] - ref.s[i]) / ref.s[i]);
  }
  return err;
}

TEST(PrecisionF32, GemmMatchesF64AllTransposeCombos) {
  const Index m = 37, k = 29, n = 31;
  for (int combo = 0; combo < 4; ++combo) {
    const Trans ta = (combo & 1) ? Trans::Yes : Trans::No;
    const Trans tb = (combo & 2) ? Trans::Yes : Trans::No;
    Rng rng(500 + static_cast<std::uint64_t>(combo));
    const Matrix a = (ta == Trans::No) ? Matrix::gaussian(m, k, rng)
                                       : Matrix::gaussian(k, m, rng);
    const Matrix b = (tb == Trans::No) ? Matrix::gaussian(k, n, rng)
                                       : Matrix::gaussian(n, k, rng);
    const Matrix want = matmul(a, b, ta, tb);
    const MatrixF got = matmul_f32(to_single(a), to_single(b), ta, tb);
    // fp32 rounding of the operands plus sqrt(k)-ish accumulation error.
    EXPECT_LT(max_abs_diff(to_double(got), want), 1e-3) << "combo " << combo;
  }
}

TEST(PrecisionF32, GemmBetaAndAlphaSemantics) {
  const MatrixF a = random_f32(12, 7, 510);
  const MatrixF b = random_f32(7, 9, 511);
  MatrixF c(12, 9, 1.0f);
  // C = 2*A*B + 3*C with C prefilled with ones.
  gemm_f32(Trans::No, Trans::No, 2.0f, a, b, 3.0f, c);
  const Matrix want_ab = matmul(to_double(a), to_double(b));
  for (Index j = 0; j < 9; ++j) {
    for (Index i = 0; i < 12; ++i) {
      EXPECT_NEAR(static_cast<double>(c(i, j)), 2.0 * want_ab(i, j) + 3.0,
                  1e-4);
    }
  }
}

TEST(PrecisionF32, Mgs2ProducesOrthonormalBasis) {
  MatrixF a = random_f32(60, 12, 512);
  const Index dropped = orthonormalize_mgs2_f32(a);
  ASSERT_EQ(dropped, 0);  // random gaussian columns are full rank
  const Matrix q = to_double(a);
  const Matrix g = gram(q);
  for (Index j = 0; j < 12; ++j) {
    for (Index i = 0; i < 12; ++i) {
      EXPECT_NEAR(g(i, j), (i == j) ? 1.0 : 0.0, 1e-5);
    }
  }
}

TEST(PrecisionCholQr2, MatchesMgs2SubspaceAtGemmSpeedShapes) {
  // Well-conditioned tall block: CholQR2 must produce an orthonormal
  // basis of the same column space (projector match, since the basis
  // itself is method-dependent).
  Rng rng(513);
  const Matrix a0 = Matrix::gaussian(300, 24, rng);
  Matrix qc = a0;
  ASSERT_EQ(orthonormalize_cholqr2(qc), 0);
  EXPECT_LT(orthogonality_error(qc), 1e-13);
  Matrix qm = a0;
  ASSERT_EQ(orthonormalize_mgs2(qm), 0);
  // P = Q Qᵀ is basis-independent; compare through a probe vector set.
  const Matrix probe = Matrix::gaussian(300, 6, rng);
  const Matrix pc = matmul(qc, matmul(qc, probe, Trans::Yes, Trans::No));
  const Matrix pm = matmul(qm, matmul(qm, probe, Trans::Yes, Trans::No));
  EXPECT_LT(max_abs_diff(pc, pm), 1e-10);
}

TEST(PrecisionCholQr2, FallsBackToMgs2OnRankDeficiency) {
  // Column 3 duplicates column 0: the Gram matrix is exactly singular,
  // Cholesky breaks down, and the MGS2 fallback must report the drop.
  Rng rng(514);
  Matrix a = Matrix::gaussian(80, 6, rng);
  for (Index i = 0; i < a.rows(); ++i) a(i, 3) = a(i, 0);
  const Index dropped = orthonormalize_cholqr2(a);
  EXPECT_EQ(dropped, 1);
}

TEST(PrecisionCholQr2, F32ProducesOrthonormalBasisAndSurvivesConditioning) {
  MatrixF a = random_f32(200, 16, 515);
  ASSERT_EQ(orthonormalize_cholqr2_f32(a), 0);
  const Matrix g = gram(to_double(a));
  for (Index j = 0; j < 16; ++j) {
    for (Index i = 0; i < 16; ++i) {
      EXPECT_NEAR(g(i, j), (i == j) ? 1.0 : 0.0, 1e-5);
    }
  }
  // kappa ~ 1e4 means kappa^2 ~ 1e8 > 1/eps_f32: past the fp32 CholQR
  // breakdown bar, so this exercises the MGS2 fallback path; the result
  // must still be orthonormal.
  Rng rng(516);
  Vector spectrum(8);
  for (Index i = 0; i < 8; ++i) spectrum[i] = std::pow(10.0, -static_cast<double>(i) * 4.0 / 7.0);
  MatrixF b = to_single(synthetic_low_rank(160, 8, spectrum, rng));
  orthonormalize_cholqr2_f32(b);
  const Matrix gb = gram(to_double(b));
  for (Index j = 0; j < 8; ++j) {
    for (Index i = 0; i < 8; ++i) {
      EXPECT_NEAR(gb(i, j), (i == j) ? 1.0 : 0.0, 1e-4);
    }
  }
}

// The acceptance fixture: the adversarial spiked spectrum from the sketch
// accuracy suite — two huge spikes over a flat noise floor, the classic
// case where a coarse subspace is catastrophically wrong.
TEST(PrecisionMixed, SigmaWithinRefinementToleranceOnSpikedSpectrum) {
  Rng rng(103);
  Vector spectrum(32);
  spectrum[0] = 100.0;
  spectrum[1] = 50.0;
  for (Index i = 2; i < spectrum.size(); ++i) spectrum[i] = 0.01;
  const Matrix a = synthetic_low_rank(96, 64, spectrum, rng);

  RandomizedOptions opts;
  opts.rank = 2;
  opts.oversampling = 10;
  opts.power_iterations = 1;
  RandomizedOptions od = opts;
  od.precision = Precision::Double;
  RandomizedOptions om = opts;
  om.precision = Precision::Mixed;

  const SvdResult fd = randomized_svd(a, od);
  const SvdResult fm = randomized_svd(a, om);
  ASSERT_EQ(fd.s.size(), 2);
  EXPECT_LT(max_sigma_rel_err(fd, fm), 1e-10);
}

TEST(PrecisionMixed, SigmaWithinRefinementToleranceOnBurgersModes) {
  // A small cut of the paper's Burgers snapshot matrix: strongly decaying
  // physical spectrum, the library's flagship input.
  workloads::BurgersConfig config;
  config.grid_points = 256;
  config.snapshots = 64;
  const Matrix a = workloads::Burgers(config).snapshot_matrix();

  RandomizedOptions opts;
  opts.rank = 5;
  opts.oversampling = 8;
  opts.power_iterations = 2;
  RandomizedOptions od = opts;
  od.precision = Precision::Double;
  RandomizedOptions om = opts;
  om.precision = Precision::Mixed;

  const SvdResult fd = randomized_svd(a, od);
  const SvdResult fm = randomized_svd(a, om);
  ASSERT_EQ(fd.s.size(), 5);
  EXPECT_LT(max_sigma_rel_err(fd, fm), 1e-10);
}

TEST(PrecisionMixed, GeometricSpectrumSweepStaysRefined) {
  // The bench's claim workload at test scale: geometric decay 0.9.
  Rng rng(0x5eedf00d);
  const Vector spectrum = workloads::geometric_spectrum(24, 1.0, 0.9);
  const Matrix a = synthetic_low_rank(192, 96, spectrum, rng);
  RandomizedOptions opts;
  opts.rank = 8;
  opts.oversampling = 8;
  opts.power_iterations = 2;
  RandomizedOptions od = opts;
  od.precision = Precision::Double;
  RandomizedOptions om = opts;
  om.precision = Precision::Mixed;
  const SvdResult fd = randomized_svd(a, od);
  const SvdResult fm = randomized_svd(a, om);
  EXPECT_LT(max_sigma_rel_err(fd, fm), 1e-10);
}

TEST(PrecisionSingle, CoarserThanMixedButSane) {
  Rng rng(0x51e9);
  const Vector spectrum = workloads::geometric_spectrum(24, 1.0, 0.9);
  const Matrix a = synthetic_low_rank(160, 80, spectrum, rng);
  RandomizedOptions opts;
  opts.rank = 6;
  opts.oversampling = 8;
  opts.power_iterations = 2;
  RandomizedOptions od = opts;
  od.precision = Precision::Double;
  RandomizedOptions om = opts;
  om.precision = Precision::Mixed;
  RandomizedOptions os = opts;
  os.precision = Precision::Single;

  const SvdResult fd = randomized_svd(a, od);
  const double mixed_err = max_sigma_rel_err(fd, randomized_svd(a, om));
  const double single_err = max_sigma_rel_err(fd, randomized_svd(a, os));
  // Single projects in fp32 — error at fp32 scale, orders of magnitude
  // above the refined Mixed path but still a usable approximation.
  EXPECT_GT(single_err, mixed_err);
  EXPECT_LT(single_err, 1e-3);
  EXPECT_LT(mixed_err, 1e-10);
}

TEST(PrecisionCompensated, DotRecoversCatastrophicCancellation) {
  // Products are [1e17, 3, -1e17]: naive fp64 rounds 1e17 + 3 back to
  // 1e17 (ulp is 16 there) and returns 0; Dot2 keeps the 3 exactly.
  const std::vector<double> x = {1e9, 1.5, 1e9};
  const std::vector<double> y = {1e8, 2.0, -1e8};
  EXPECT_EQ(dot_compensated(x, y), 3.0);
}

TEST(PrecisionCompensated, GramBeatsNaiveOnIllConditionedColumns) {
  // Columns of huge alternating-sign entries plus a small signal: every
  // cross dot cancels catastrophically. Entries are chosen so products
  // and the true sums are exactly representable, making the compensated
  // result exact while naive summation loses the signal.
  // The first 62 rows of c0 alternate ±1e9 (31 exactly cancelling pairs
  // against the constant-1e8 c1); the last two rows carry the small
  // signal. The cross products are [1e17, -1e17, ..., 3.0, 0.0]: the big
  // pairs cancel exactly and the true dot is 3.0, but naive
  // left-to-right fp64 summation absorbs the 3.0 into a 1e17-scale
  // partial (ulp 16) and loses it. Dot2 keeps it exactly.
  const Index m = 64;
  Matrix a(m, 2);
  for (Index i = 0; i < m - 2; ++i) {
    a(i, 0) = (i % 2 == 0) ? 1e9 : -1e9;
    a(i, 1) = 1e8;
  }
  a(m - 2, 0) = 2.0;
  a(m - 2, 1) = 1.5;
  a(m - 1, 0) = 1e9;
  a(m - 1, 1) = 0.0;
  const Matrix g = gram_compensated(a);
  EXPECT_EQ(g(0, 1), 3.0);
  EXPECT_EQ(g(1, 0), 3.0);
  // And the diagonal matches long-double reference accumulation.
  long double d0 = 0.0L;
  for (Index i = 0; i < m; ++i) {
    d0 += static_cast<long double>(a(i, 0)) * static_cast<long double>(a(i, 0));
  }
  EXPECT_EQ(g(0, 0), static_cast<double>(d0));
}

TEST(PrecisionParse, RoundTripsAndRejectsJunk) {
  EXPECT_STREQ(to_string(Precision::Mixed), "mixed");
  EXPECT_STREQ(to_string(Precision::Single), "single");
  EXPECT_STREQ(to_string(Precision::Double), "double");
}

}  // namespace
}  // namespace parsvd
