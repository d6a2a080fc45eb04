// Distributed TSQR tests: both variants against the serial QR, rank-count
// invariance, uneven row splits, orthogonality of the assembled Q.
#include <gtest/gtest.h>

#include <tuple>

#include "core/tsqr.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "test_utils.hpp"
#include "workloads/batch_source.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using testing::expect_matrix_near;
using testing::naive_matmul;
using testing::ortho_defect;
using testing::random_matrix;
using workloads::partition_rows;

/// Run TSQR over `p` ranks on row-blocks of `a`; reassemble the global Q
/// and return (Q, R).
QrResult run_tsqr(const Matrix& a, int p, TsqrVariant variant) {
  std::vector<Matrix> q_blocks(static_cast<std::size_t>(p));
  Matrix r;
  std::mutex mu;
  pmpi::run(p, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), p, comm.rank());
    const Matrix local = a.block(part.offset, 0, part.count, a.cols());
    TsqrResult res = tsqr(comm, local, variant);
    std::lock_guard<std::mutex> lock(mu);
    q_blocks[static_cast<std::size_t>(comm.rank())] = res.q_local();
    if (comm.is_root()) r = std::move(res.r);
  });
  return {vcat(q_blocks), std::move(r)};
}

class TsqrSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};
// params: ranks, rows, cols, variant

TEST_P(TsqrSweep, MatchesSerialQr) {
  const auto [p, m, n, variant_idx] = GetParam();
  if (m < p * n) GTEST_SKIP() << "blocks must be taller than wide for TSQR";
  const auto variant = static_cast<TsqrVariant>(variant_idx);
  const Matrix a = random_matrix(m, n, 77);
  const QrResult dist = run_tsqr(a, p, variant);
  const QrResult serial = qr_thin(a);

  // Same deterministic sign convention → exact same factors (up to fp).
  expect_matrix_near(dist.r, serial.r, 1e-10, "R");
  expect_matrix_near(dist.q, serial.q, 1e-10, "Q");
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TsqrSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values(64, 150),
                       ::testing::Values(1, 5, 12),
                       ::testing::Values(0, 1)));  // Direct, Tree

TEST(Tsqr, ReconstructsInput) {
  const Matrix a = random_matrix(120, 8, 78);
  for (const auto variant : {TsqrVariant::Direct, TsqrVariant::Tree}) {
    const QrResult qr = run_tsqr(a, 4, variant);
    expect_matrix_near(naive_matmul(qr.q, qr.r), a, 1e-11);
    EXPECT_LT(ortho_defect(qr.q), 1e-12);
  }
}

TEST(Tsqr, UnevenRowDistribution) {
  // 5 ranks over 103 rows: blocks of 21/21/21/20/20.
  const Matrix a = random_matrix(103, 6, 79);
  const QrResult dist = run_tsqr(a, 5, TsqrVariant::Direct);
  const QrResult serial = qr_thin(a);
  expect_matrix_near(dist.q, serial.q, 1e-10);
}

TEST(Tsqr, RFactorIdenticalOnAllRanks) {
  const Matrix a = random_matrix(80, 5, 80);
  std::vector<Matrix> r_per_rank(4);
  pmpi::run(4, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), 4, comm.rank());
    const Matrix local = a.block(part.offset, 0, part.count, a.cols());
    TsqrResult res = tsqr(comm, local, TsqrVariant::Direct);
    r_per_rank[static_cast<std::size_t>(comm.rank())] = std::move(res.r);
  });
  for (int r = 1; r < 4; ++r) {
    expect_matrix_near(r_per_rank[static_cast<std::size_t>(r)], r_per_rank[0],
                       0.0);
  }
}

TEST(Tsqr, VariantsAgreeWithEachOther) {
  const Matrix a = random_matrix(96, 7, 81);
  const QrResult direct = run_tsqr(a, 6, TsqrVariant::Direct);
  const QrResult tree = run_tsqr(a, 6, TsqrVariant::Tree);
  expect_matrix_near(direct.q, tree.q, 1e-10);
  expect_matrix_near(direct.r, tree.r, 1e-10);
}

TEST(Tsqr, SingleRankEqualsSerial) {
  const Matrix a = random_matrix(40, 5, 82);
  const QrResult dist = run_tsqr(a, 1, TsqrVariant::Tree);
  const QrResult serial = qr_thin(a);
  expect_matrix_near(dist.q, serial.q, 0.0);
  expect_matrix_near(dist.r, serial.r, 0.0);
}

TEST(Tsqr, PositiveDiagonalConvention) {
  const Matrix a = random_matrix(72, 6, 83);
  const QrResult qr = run_tsqr(a, 3, TsqrVariant::Direct);
  for (Index i = 0; i < qr.r.rows(); ++i) EXPECT_GE(qr.r(i, i), 0.0);
}

TEST(Tsqr, EmptyLocalBlockThrows) {
  pmpi::run(1, [](Communicator& comm) {
    EXPECT_THROW(tsqr(comm, Matrix{}, TsqrVariant::Direct), Error);
  });
}

TEST(Tsqr, QTimesMatchesFormedSlice) {
  // q_times(S) applies this rank's reflectors to transform·S without
  // forming the slice; it must agree with q_local()·S for every variant
  // and rank count, including ranks holding fewer rows than columns.
  struct Mode {
    TsqrVariant variant;
    bool fault_tolerant;
  };
  const Mode modes[] = {{TsqrVariant::Direct, false},
                        {TsqrVariant::Tree, false},
                        {TsqrVariant::Direct, true}};
  for (const Index rows : {75, 20}) {
    const Matrix a = random_matrix(rows, 9, 85);
    const Matrix s = random_matrix(9, 4, 86);
    for (const Mode& mode : modes) {
      for (int p = 1; p <= 5; ++p) {
        SCOPED_TRACE(::testing::Message()
                     << "rows=" << rows << " p=" << p << " ft="
                     << mode.fault_tolerant << " tree="
                     << (mode.variant == TsqrVariant::Tree));
        pmpi::run(p, [&](Communicator& comm) {
          const auto part = partition_rows(a.rows(), p, comm.rank());
          const TsqrResult res =
              tsqr(comm, a.block(part.offset, 0, part.count, a.cols()),
                   mode.variant, mode.fault_tolerant);
          const Matrix q = res.q_local();
          ASSERT_EQ(q.rows(), part.count);
          ASSERT_EQ(q.cols(), 9);
          expect_matrix_near(res.q_times(s), naive_matmul(q, s), 1e-12);
        });
      }
    }
  }
}

TEST(Tsqr, NonPowerOfTwoTreeRanks) {
  // Tree reduction with 5 and 6 ranks exercises the unpaired-rank path.
  for (int p : {5, 6}) {
    const Matrix a = random_matrix(90, 4, 84);
    const QrResult dist = run_tsqr(a, p, TsqrVariant::Tree);
    const QrResult serial = qr_thin(a);
    expect_matrix_near(dist.q, serial.q, 1e-10);
  }
}

}  // namespace
}  // namespace parsvd
