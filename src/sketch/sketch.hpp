// Structured random sketch operators (randomized SVD v2).
//
// The Halko-style range finder spends its time applying a test matrix:
// Y = A Ω with Ω (n x s) dense Gaussian costs O(mns) — a full GEMM.
// Li-Kluger-Tygert (arXiv:1612.08709) show that structured embeddings
// reach the same spectral-error guarantees far cheaper:
//   * sparse-sign / CountSketch: ζ nonzeros (±1/√ζ) per row of Ω, apply
//     is a scatter-accumulate over A's columns, O(mnζ) with ζ ≈ 8;
//   * SRHT (subsampled randomized Hadamard transform): Ω = D H Pᵀ with a
//     ±1 diagonal D, the Walsh-Hadamard transform H on the next power of
//     two, and a column subsampling P; apply is O(mn log n) via the
//     in-place butterfly.
// The dense Gaussian operator remains available (and the default) behind
// the same interface.
//
// Seeding contract (DESIGN §10). Every operator is fully determined by
// (kind, dim, sketch_dim, operator_seed):
//   * operator_seed is derived from a caller base seed with
//     derive_operator_seed(base, kind, draw_index) — the documented split
//     that keeps per-call fresh-Ω streams and per-kind operators from
//     silently correlating;
//   * all row-indexed randomness (Gaussian rows, sparse patterns, SRHT
//     signs) comes from row_rng(operator_seed, global_row) — a fresh
//     generator per GLOBAL row index, so realize_rows(lo, n) is bit-exact
//     regardless of how the row range is blocked. P identically-seeded
//     ranks each holding a row slice therefore realize exactly the rows
//     of the one global operator (the distributed sketch-apply contract).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace parsvd::sketch {

/// Test-matrix family used by the randomized range finder.
enum class SketchKind {
  DenseGaussian,  ///< i.i.d. N(0,1) entries; O(mns) GEMM apply.
  SparseSign,     ///< CountSketch-style, ζ entries ±1/√ζ per row; O(mnζ).
  Srht,           ///< subsampled randomized Hadamard; O(mn log n).
  Auto,           ///< pick by the per-kind apply-cost model.
};

const char* to_string(SketchKind kind);

/// Default nonzeros per Ω row of a sparse-sign operator (the SketchySVD
/// operating point).
inline constexpr Index kSparseSignNnz = 8;

// ------------------------------------------------------ seeding contract

/// Derive the seed of one concrete operator from a caller stream value.
/// `draw_index` distinguishes multiple operators minted from one base
/// (e.g. per power-iteration refresh); the kind is mixed in so switching
/// kinds can never replay another kind's stream.
std::uint64_t derive_operator_seed(std::uint64_t base_seed, SketchKind kind,
                                   std::uint64_t draw_index);

/// Generator of all randomness attached to one GLOBAL row of Ω. Fresh
/// per row — never advanced across rows — so block realizations are
/// partition-invariant bit-for-bit.
Rng row_rng(std::uint64_t operator_seed, Index global_row);

// ---------------------------------------------------- operator interface

/// A random linear map Ω : R^dim → R^sketch_dim, applied without ever
/// materializing Ω on the fast paths. Thread-safe for concurrent applies
/// (operators are immutable after construction).
class SketchOperator {
 public:
  virtual ~SketchOperator() = default;
  SketchOperator(const SketchOperator&) = delete;
  SketchOperator& operator=(const SketchOperator&) = delete;

  SketchKind kind() const { return kind_; }
  /// d — the dimension being compressed (columns of A for Y = A Ω; the
  /// global row count for the distributed left-apply).
  Index dim() const { return dim_; }
  /// s — the embedding dimension (rank + oversampling).
  Index sketch_dim() const { return sketch_dim_; }
  std::uint64_t operator_seed() const { return seed_; }

  /// Y = A Ω (A: m x dim, Y resized to m x sketch_dim) — the range
  /// finder's sketch. Large inputs fan out over the global ThreadPool in
  /// row panels.
  void apply_right(const Matrix& a, Matrix& y) const;
  Matrix apply_right(const Matrix& a) const;

  /// fp32 working-precision sketch: Y = A Ω on float buffers (the Mixed /
  /// Single range-finder paths, DESIGN §12). Dense kinds realize Ω once,
  /// narrow it, and run the fp32 packed GEMM — the full ~2x throughput
  /// win; structured kinds (already bandwidth-bound, no fp32 kernels)
  /// fall back to the fp64 apply and narrow the result.
  void apply_right_f32(const MatrixF& a, MatrixF& y) const;

  /// B += Ω[row_offset : row_offset + a.rows(), :]ᵀ A — one rank's
  /// contribution to the row-compressing sketch B = Ωᵀ A of a
  /// row-distributed matrix (B: sketch_dim x a.cols()). The partial
  /// sketches of all ranks sum to the serial Ωᵀ A because realization is
  /// per-global-row (see the seeding contract above).
  void accumulate_left(const Matrix& a, Index row_offset, Matrix& b) const;

  /// Dense realization of rows [row0, row0 + nrows) of Ω — bit-exact for
  /// any blocking of the row range. Reference path for tests and the
  /// generic accumulate_left fallback; O(nrows x sketch_dim) memory.
  virtual Matrix realize_rows(Index row0, Index nrows) const = 0;

  /// Flop estimate of one apply_right on an m x dim input, for the
  /// metrics counters and the Auto cost model.
  virtual double apply_flops(Index m) const = 0;

 protected:
  SketchOperator(SketchKind kind, Index dim, Index sketch_dim,
                 std::uint64_t seed);

  virtual void do_apply_right(const Matrix& a, Matrix& y) const = 0;
  /// Default: realize row blocks and accumulate through gemm. SparseSign
  /// overrides with the scatter version.
  virtual void do_accumulate_left(const Matrix& a, Index row_offset,
                                  Matrix& b) const;

 private:
  SketchKind kind_;
  Index dim_;
  Index sketch_dim_;
  std::uint64_t seed_;
  // Cached registry series ("sketch.<kind>.applies" / ".flops"): one
  // relaxed add per apply.
  obs::Counter* applies_ = nullptr;
  obs::Counter* flops_ = nullptr;
};

/// Dense i.i.d. N(0,1) test matrix — the paper's §3.3 operator behind
/// the common interface. apply_right materializes Ω and runs one GEMM
/// (exactly the legacy cost); rows are derived per-global-row so the
/// distributed contract holds for it too.
class GaussianSketch final : public SketchOperator {
 public:
  GaussianSketch(Index dim, Index sketch_dim, std::uint64_t seed);
  Matrix realize_rows(Index row0, Index nrows) const override;
  double apply_flops(Index m) const override;

 protected:
  void do_apply_right(const Matrix& a, Matrix& y) const override;
};

/// Sparse-sign / CountSketch embedding: each row of Ω holds `nnz` values
/// ±1/√nnz in distinct columns. apply_right is a scatter-accumulate over
/// A's columns, threaded over row panels of A.
class SparseSignSketch final : public SketchOperator {
 public:
  /// `nnz` == 0 selects min(kSparseSignNnz, sketch_dim).
  SparseSignSketch(Index dim, Index sketch_dim, std::uint64_t seed,
                   Index nnz = 0);
  Index nnz_per_row() const { return nnz_; }
  Matrix realize_rows(Index row0, Index nrows) const override;
  double apply_flops(Index m) const override;

 protected:
  void do_apply_right(const Matrix& a, Matrix& y) const override;
  void do_accumulate_left(const Matrix& a, Index row_offset,
                          Matrix& b) const override;

 private:
  /// Columns and signed values (±1/√nnz) of global row `row`, written to
  /// cols[0..nnz) / vals[0..nnz). Derivation only — no state.
  void row_pattern(Index row, Index* cols, double* vals) const;

  Index nnz_;
  double scale_;
};

/// Subsampled randomized Hadamard transform: Ω = √(d₂/s)·D·H·Pᵀ/√d₂ with
/// d₂ = next power of two ≥ dim (inputs zero-padded), D a ±1 diagonal
/// derived per global row, H the Walsh-Hadamard matrix applied via the
/// in-place butterfly, P a uniform sample of s distinct output indices.
/// Entries of the realized Ω are ±1/√s.
class SrhtSketch final : public SketchOperator {
 public:
  SrhtSketch(Index dim, Index sketch_dim, std::uint64_t seed);
  Index padded_dim() const { return padded_; }
  /// The s sampled Hadamard output indices (ascending, deterministic).
  const std::vector<Index>& selected() const { return selected_; }
  Matrix realize_rows(Index row0, Index nrows) const override;
  double apply_flops(Index m) const override;

 protected:
  void do_apply_right(const Matrix& a, Matrix& y) const override;

 private:
  double sign(Index row) const;

  Index padded_;
  std::vector<Index> selected_;
  double scale_;  // 1/√s
};

/// Construct an operator; `kind` must be concrete (resolve Auto first).
std::unique_ptr<SketchOperator> make_sketch(SketchKind kind, Index dim,
                                            Index sketch_dim,
                                            std::uint64_t operator_seed);

/// Resolve Auto to the cheapest kind for an m x dim input sketched to
/// sketch_dim columns (per-kind apply-cost model; dense wins ties and
/// all degenerate shapes where the embedding is no narrower than dim/2).
SketchKind resolve_auto(SketchKind kind, Index m, Index dim,
                        Index sketch_dim);

/// In-place unnormalized Walsh-Hadamard transform of data[0..n), n a
/// power of two: y[c] = Σ_r x[r]·(−1)^popcount(r & c).
void fwht(double* data, Index n);

/// Smallest power of two >= n (the SRHT padded dimension).
Index next_pow2(Index n);

}  // namespace parsvd::sketch
