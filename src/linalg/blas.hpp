// BLAS-style dense kernels.
//
// The substrate the paper gets for free from NumPy/LAPACK. Level-3 matmul
// runs through a packed, register-tiled kernel engine (BLIS-style
// MC/KC/NC cache blocking around an MR x NR micro-kernel, shared between
// the fp64 and fp32 paths — see linalg/gemm_engine.hpp) and fans out to
// the shared-memory thread pool above a size threshold; gram() and gemv()
// reuse the same engine / partitioning. The library's cost profile is
// dominated by GEMM and the factorizations built on it.
//
// Three precision regimes (DESIGN.md §12):
//   * fp64 — the default and the library's currency;
//   * fp32 — gemm_f32/matmul_f32 on MatrixF buffers, ~2x vector
//     throughput, used by the mixed randomized-SVD path which refines
//     the fp32 subspace back to fp64 (core/randomized.cpp);
//   * compensated — double-double (two-sum/two-prod) accumulation for
//     Gram matrices and long-stream dots (dot_compensated /
//     gram_compensated), for the ill-conditioned spots where naive fp64
//     summation loses digits.
//
// The engine runs one fixed configuration per precision
// (kGemmBlockingF64 / kGemmBlockingF32 below).
#pragma once

#include "linalg/matrix.hpp"

namespace parsvd {

/// Transposition selector for matmul operands.
enum class Trans { No, Yes };

/// Arithmetic regime for the flop-heavy inner loops of the randomized /
/// streaming paths. Double is the reference; Single runs the range finder
/// entirely in fp32 (coarse — bench/ablation use); Mixed runs sketch
/// applies and power-iteration GEMMs in fp32 then re-orthogonalizes and
/// projects in fp64, recovering fp64-grade singular values (DESIGN §12).
enum class Precision { Double, Single, Mixed };

const char* to_string(Precision p);

/// Cache blocks (MC, KC, NC) and micro tile (MR x NR) of the packed GEMM.
struct GemmBlocking {
  Index mc;  ///< rows of the packed A block (L2 resident)
  Index kc;  ///< panel depth (L1/L2 resident)
  Index nc;  ///< columns of the packed B block (L3 resident)
  Index mr;  ///< micro-tile rows
  Index nr;  ///< micro-tile columns
};

/// The fp64 engine's configuration: an 8 x 6 micro tile (eight doubles
/// fill one 512-bit row) under 96/256/4032 cache blocks.
inline constexpr GemmBlocking kGemmBlockingF64{96, 256, 4032, 8, 6};

/// The fp32 engine's configuration: fp32 elements are half the bytes, so
/// KC doubles (same packed panel footprint as fp64) and MR = 16 fills the
/// same vector width.
inline constexpr GemmBlocking kGemmBlockingF32{96, 512, 4032, 16, 6};

// ----------------------------------------------------- precision casts

/// Elementwise narrowing copy (rounds to nearest float).
MatrixF to_single(const Matrix& a);

/// Elementwise widening copy.
Matrix to_double(const MatrixF& a);

// ------------------------------------------------------------- level 1

/// dot(x, y) = xᵀy (naive fp64 accumulation).
double dot(std::span<const double> x, std::span<const double> y);

/// Compensated dot product (Ogita–Rump–Oishi Dot2: two-prod via FMA plus
/// running two-sum compensation) — results as if accumulated in roughly
/// twice the working precision, at ~4x the flops.
double dot_compensated(std::span<const double> x, std::span<const double> y);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha
void scal(double alpha, std::span<double> x);

/// Euclidean norm with overflow-safe scaling.
double nrm2(std::span<const double> x);

// ------------------------------------------------------------- level 2

/// y = alpha * op(A) x + beta * y.
/// Above kGemvParallelThreshold the row (No) / column (Yes) range is
/// partitioned over the thread pool.
void gemv(Trans trans_a, double alpha, const Matrix& a,
          std::span<const double> x, double beta, std::span<double> y);

/// A += alpha * x yᵀ  (rank-1 update)
void ger(double alpha, std::span<const double> x, std::span<const double> y,
         Matrix& a);

// ------------------------------------------------------------- level 3

/// C = alpha * op(A) op(B) + beta * C.
/// Shapes are validated; C must already have the result shape and must not
/// alias A or B (checked — an aliased output would be silently corrupted
/// by the packed kernel's accumulation order).
/// All four transpose combinations route through the same packed kernel,
/// so Trans::Yes operands pay no strided-access penalty.
void gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix& c);

/// fp32 C = alpha * op(A) op(B) + beta * C through the same packed engine
/// (fp32 micro-kernel and blocking). Same shape/alias contract
/// as gemm().
void gemm_f32(Trans trans_a, Trans trans_b, float alpha, const MatrixF& a,
              const MatrixF& b, float beta, MatrixF& c);

/// Convenience: returns op(A) op(B) as a fresh matrix.
Matrix matmul(const Matrix& a, const Matrix& b,
              Trans trans_a = Trans::No, Trans trans_b = Trans::No);

/// fp32 convenience counterpart of matmul().
MatrixF matmul_f32(const MatrixF& a, const MatrixF& b,
                   Trans trans_a = Trans::No, Trans trans_b = Trans::No);

/// C = AᵀA (n x n Gram matrix). Only the upper triangle is computed (per
/// column block, through the packed kernel) and mirrored; column blocks are
/// partitioned over the thread pool above the GEMM threshold.
Matrix gram(const Matrix& a);

/// Compensated Gram matrix: every entry is a Dot2 compensated column dot,
/// so G = AᵀA carries roughly double-double accumulation accuracy. Much
/// slower than the packed path — reserved for ill-conditioned spots.
Matrix gram_compensated(const Matrix& a);

/// Minimum per-op flop proxy (m*n*k) before GEMM fans out to the thread
/// pool; exposed so tests can force both the serial and parallel paths.
inline constexpr Index kGemmParallelThreshold = 64 * 64 * 64;

/// Minimum element count (m*n) before GEMV fans out to the thread pool.
inline constexpr Index kGemvParallelThreshold = 128 * 1024;

namespace detail {

/// Core packed-kernel entry on raw column-major views:
///   C(m x n, leading dim ldc) += alpha * op(A)(m x k) * op(B)(k x n)
/// with op resolved during packing. `lda`/`ldb` are the leading dimensions
/// of the *stored* (untransposed) operands. Used by gemm/gram and the
/// blocked-QR trailing updates; callers guarantee C does not alias A or B.
/// `allow_parallel` gates the pool fan-out (callers already running inside
/// a parallel_for must pass false).
void gemm_accumulate(Trans trans_a, Trans trans_b, Index m, Index n, Index k,
                     double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     bool allow_parallel = true);

/// fp32 counterpart (same contract).
void gemm_accumulate_f32(Trans trans_a, Trans trans_b, Index m, Index n,
                         Index k, float alpha, const float* a, Index lda,
                         const float* b, Index ldb, float* c, Index ldc,
                         bool allow_parallel = true);

}  // namespace detail

}  // namespace parsvd
