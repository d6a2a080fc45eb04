#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/blas.hpp"
#include "sketch/sketch.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace parsvd::sketch {
namespace {

// Fan out once the scatter work is GEMM-threshold comparable (the sparse
// apply moves m * dim * nnz flops where the dense apply moves m*dim*s).
bool worth_threading(Index flops) {
  return flops >= kGemmParallelThreshold &&
         ThreadPool::global().size() > 1;
}

}  // namespace

SparseSignSketch::SparseSignSketch(Index dim, Index sketch_dim,
                                   std::uint64_t seed, Index nnz)
    : SketchOperator(SketchKind::SparseSign, dim, sketch_dim, seed),
      nnz_(nnz > 0 ? std::min(nnz, sketch_dim)
                   : std::min(kSparseSignNnz, sketch_dim)),
      scale_(1.0 / std::sqrt(static_cast<double>(nnz_))) {}

void SparseSignSketch::row_pattern(Index row, Index* cols,
                                   double* vals) const {
  Rng rng = row_rng(operator_seed(), row);
  for (Index t = 0; t < nnz_; ++t) {
    // Rejection keeps the nnz columns of one row distinct; nnz <= s so
    // the loop terminates quickly (nnz defaults to 8).
    Index c = 0;
    bool fresh = false;
    while (!fresh) {
      c = static_cast<Index>(
          rng.uniform_index(static_cast<std::uint64_t>(sketch_dim())));
      fresh = true;
      for (Index u = 0; u < t; ++u) {
        if (cols[u] == c) {
          fresh = false;
          break;
        }
      }
    }
    cols[t] = c;
    vals[t] = (rng.next_u64() & 1ULL) != 0 ? scale_ : -scale_;
  }
}

Matrix SparseSignSketch::realize_rows(Index row0, Index nrows) const {
  PARSVD_REQUIRE(row0 >= 0 && nrows > 0 && row0 + nrows <= dim(),
                 "realize_rows: row block out of range");
  Matrix block(nrows, sketch_dim());
  std::vector<Index> cols(static_cast<std::size_t>(nnz_));
  std::vector<double> vals(static_cast<std::size_t>(nnz_));
  for (Index r = 0; r < nrows; ++r) {
    row_pattern(row0 + r, cols.data(), vals.data());
    for (Index t = 0; t < nnz_; ++t) {
      block(r, cols[static_cast<std::size_t>(t)]) =
          vals[static_cast<std::size_t>(t)];
    }
  }
  return block;
}

double SparseSignSketch::apply_flops(Index m) const {
  return 2.0 * static_cast<double>(m) * static_cast<double>(dim()) *
         static_cast<double>(nnz_);
}

void SparseSignSketch::do_apply_right(const Matrix& a, Matrix& y) const {
  const Index m = a.rows();
  const Index d = dim();
  y.fill(0.0);
  // Derive the whole pattern once (d * nnz entries), then scatter: the
  // panel loop is pure arithmetic and each thread owns a disjoint row
  // range of Y, so no synchronization is needed.
  const std::size_t total = static_cast<std::size_t>(d * nnz_);
  std::vector<Index> cols(total);
  std::vector<double> vals(total);
  for (Index r = 0; r < d; ++r) {
    const std::size_t at = static_cast<std::size_t>(r * nnz_);
    row_pattern(r, cols.data() + at, vals.data() + at);
  }
  const auto panel = [&](std::size_t i0z, std::size_t i1z) {
    const Index i0 = static_cast<Index>(i0z);
    const Index i1 = static_cast<Index>(i1z);
    for (Index r = 0; r < d; ++r) {
      const double* ar = a.col_data(r);
      const std::size_t at = static_cast<std::size_t>(r * nnz_);
      for (Index t = 0; t < nnz_; ++t) {
        double* yc = y.col_data(cols[at + static_cast<std::size_t>(t)]);
        const double v = vals[at + static_cast<std::size_t>(t)];
        for (Index i = i0; i < i1; ++i) {
          yc[i] += v * ar[i];
        }
      }
    }
  };
  if (worth_threading(m * d * nnz_)) {
    ThreadPool::global().parallel_for(0, static_cast<std::size_t>(m), panel);
  } else {
    panel(0, static_cast<std::size_t>(m));
  }
}

void SparseSignSketch::do_accumulate_left(const Matrix& a, Index row_offset,
                                          Matrix& b) const {
  const Index mloc = a.rows();
  const Index n = a.cols();
  // Pattern of the local row block only; threads own disjoint column
  // ranges of B (and of A), so the scatter into B columns is race-free.
  const std::size_t total = static_cast<std::size_t>(mloc * nnz_);
  std::vector<Index> cols(total);
  std::vector<double> vals(total);
  for (Index r = 0; r < mloc; ++r) {
    const std::size_t at = static_cast<std::size_t>(r * nnz_);
    row_pattern(row_offset + r, cols.data() + at, vals.data() + at);
  }
  const auto panel = [&](std::size_t j0z, std::size_t j1z) {
    for (std::size_t jz = j0z; jz < j1z; ++jz) {
      const Index j = static_cast<Index>(jz);
      const double* aj = a.col_data(j);
      double* bj = b.col_data(j);
      for (Index r = 0; r < mloc; ++r) {
        const double ar = aj[r];
        const std::size_t at = static_cast<std::size_t>(r * nnz_);
        for (Index t = 0; t < nnz_; ++t) {
          bj[cols[at + static_cast<std::size_t>(t)]] +=
              vals[at + static_cast<std::size_t>(t)] * ar;
        }
      }
    }
  };
  if (worth_threading(mloc * n * nnz_)) {
    ThreadPool::global().parallel_for(0, static_cast<std::size_t>(n), panel);
  } else {
    panel(0, static_cast<std::size_t>(n));
  }
}

}  // namespace parsvd::sketch
