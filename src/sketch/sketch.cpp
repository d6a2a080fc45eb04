#include "sketch/sketch.hpp"

#include <algorithm>
#include <string>

#include "linalg/blas.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace parsvd::sketch {
namespace {

// SplitMix64 finalizer — the same mixer Rng seeds through, reused here so
// the documented seed-derivation chain is one primitive end to end.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

const char* apply_span_name(SketchKind kind) {
  switch (kind) {
    case SketchKind::DenseGaussian:
      return "sketch.apply.dense_gaussian";
    case SketchKind::SparseSign:
      return "sketch.apply.sparse_sign";
    case SketchKind::Srht:
      return "sketch.apply.srht";
    case SketchKind::Auto:
      break;
  }
  return "sketch.apply";
}

std::string counter_name(SketchKind kind, const char* what) {
  return std::string("sketch.") + to_string(kind) + "." + what;
}

}  // namespace

const char* to_string(SketchKind kind) {
  switch (kind) {
    case SketchKind::DenseGaussian:
      return "dense_gaussian";
    case SketchKind::SparseSign:
      return "sparse_sign";
    case SketchKind::Srht:
      return "srht";
    case SketchKind::Auto:
      return "auto";
  }
  return "unknown";
}

std::uint64_t derive_operator_seed(std::uint64_t base_seed, SketchKind kind,
                                   std::uint64_t draw_index) {
  std::uint64_t h = base_seed +
                    0x9e3779b97f4a7c15ULL *
                        (static_cast<std::uint64_t>(kind) + 1);
  h = mix64(h);
  return mix64(h ^ (0xda942042e4dd58b5ULL * (draw_index + 1)));
}

Rng row_rng(std::uint64_t operator_seed, Index global_row) {
  PARSVD_CHECK(global_row >= 0, "row_rng row index must be non-negative");
  return Rng(mix64(operator_seed ^
                   (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(global_row) + 1))));
}

Index next_pow2(Index n) {
  PARSVD_REQUIRE(n > 0, "next_pow2 of a non-positive value");
  Index p = 1;
  while (p < n) p <<= 1;
  return p;
}

// ---------------------------------------------------------- base class

SketchOperator::SketchOperator(SketchKind kind, Index dim, Index sketch_dim,
                               std::uint64_t seed)
    : kind_(kind), dim_(dim), sketch_dim_(sketch_dim), seed_(seed) {
  PARSVD_REQUIRE(dim > 0, "sketch operator dim must be positive");
  PARSVD_REQUIRE(sketch_dim > 0, "sketch_dim must be positive");
  obs::Registry& reg = obs::Registry::global();
  applies_ = &reg.counter(counter_name(kind, "applies"));
  flops_ = &reg.counter(counter_name(kind, "flops"));
}

void SketchOperator::apply_right(const Matrix& a, Matrix& y) const {
  PARSVD_REQUIRE(!a.empty(), "sketch apply of an empty matrix");
  PARSVD_REQUIRE(a.cols() == dim_,
                 "sketch apply: input has " + std::to_string(a.cols()) +
                     " cols, operator dim is " + std::to_string(dim_));
  PARSVD_REQUIRE(!a.aliases(y), "sketch apply: output aliases input");
  y.resize(a.rows(), sketch_dim_);
  obs::TraceScope span(apply_span_name(kind_));
  do_apply_right(a, y);
  applies_->add(1);
  flops_->add(static_cast<std::uint64_t>(apply_flops(a.rows())));
}

Matrix SketchOperator::apply_right(const Matrix& a) const {
  Matrix y;
  apply_right(a, y);
  return y;
}

void SketchOperator::apply_right_f32(const MatrixF& a, MatrixF& y) const {
  PARSVD_REQUIRE(!a.empty(), "sketch apply of an empty matrix");
  PARSVD_REQUIRE(a.cols() == dim_,
                 "sketch apply: input has " + std::to_string(a.cols()) +
                     " cols, operator dim is " + std::to_string(dim_));
  PARSVD_REQUIRE(!a.aliases(y), "sketch apply: output aliases input");
  obs::TraceScope span(apply_span_name(kind_));
  if (kind_ == SketchKind::DenseGaussian) {
    const MatrixF omega = to_single(realize_rows(0, dim_));
    y = MatrixF(a.rows(), sketch_dim_);
    gemm_f32(Trans::No, Trans::No, 1.0f, a, omega, 0.0f, y);
  } else {
    // Structured applies are scatter/butterfly passes with no fp32
    // variant; widen, apply, narrow. Their apply is already far below
    // GEMM cost, so the conversions don't change the regime.
    const Matrix ad = to_double(a);
    Matrix yd(a.rows(), sketch_dim_);
    do_apply_right(ad, yd);
    y = to_single(yd);
  }
  applies_->add(1);
  flops_->add(static_cast<std::uint64_t>(apply_flops(a.rows())));
}

void SketchOperator::accumulate_left(const Matrix& a, Index row_offset,
                                     Matrix& b) const {
  PARSVD_REQUIRE(!a.empty(), "sketch accumulate of an empty matrix");
  PARSVD_REQUIRE(row_offset >= 0 && row_offset + a.rows() <= dim_,
                 "sketch accumulate: row block exceeds operator dim");
  PARSVD_REQUIRE(b.rows() == sketch_dim_ && b.cols() == a.cols(),
                 "sketch accumulate: output must be sketch_dim x cols(A)");
  PARSVD_REQUIRE(!a.aliases(b), "sketch accumulate: output aliases input");
  obs::TraceScope span("sketch.accumulate_left");
  do_accumulate_left(a, row_offset, b);
  applies_->add(1);
  // The left-apply moves the same operator mass as a right-apply of the
  // block's shape; reuse the per-kind model scaled to the block rows.
  flops_->add(static_cast<std::uint64_t>(
      apply_flops(a.cols()) / static_cast<double>(dim_) *
      static_cast<double>(a.rows())));
}

void SketchOperator::do_accumulate_left(const Matrix& a, Index row_offset,
                                        Matrix& b) const {
  // Generic fallback: realize row blocks of Ω and accumulate through the
  // packed kernel — O(rows x sketch_dim) extra memory per chunk.
  constexpr Index kChunk = 512;
  for (Index r0 = 0; r0 < a.rows(); r0 += kChunk) {
    const Index nr = std::min(kChunk, a.rows() - r0);
    const Matrix block = realize_rows(row_offset + r0, nr);
    detail::gemm_accumulate(Trans::Yes, Trans::No, sketch_dim_, a.cols(), nr,
                            1.0, block.data(), nr, a.data() + r0, a.rows(),
                            b.data(), sketch_dim_);
  }
}

// -------------------------------------------------------------- factory

std::unique_ptr<SketchOperator> make_sketch(SketchKind kind, Index dim,
                                            Index sketch_dim,
                                            std::uint64_t operator_seed) {
  switch (kind) {
    case SketchKind::DenseGaussian:
      return std::make_unique<GaussianSketch>(dim, sketch_dim, operator_seed);
    case SketchKind::SparseSign:
      return std::make_unique<SparseSignSketch>(dim, sketch_dim,
                                                operator_seed);
    case SketchKind::Srht:
      return std::make_unique<SrhtSketch>(dim, sketch_dim, operator_seed);
    case SketchKind::Auto:
      break;
  }
  throw ConfigError("make_sketch requires a concrete kind (resolve Auto first)");
}

SketchKind resolve_auto(SketchKind kind, Index m, Index dim,
                        Index sketch_dim) {
  if (kind != SketchKind::Auto) return kind;
  // An embedding no narrower than half the input dimension gains nothing
  // structured; keep the plain Gaussian GEMM.
  if (sketch_dim * 2 >= dim) return SketchKind::DenseGaussian;
  const double md = static_cast<double>(m) * static_cast<double>(dim);
  const double dense = 2.0 * md * static_cast<double>(sketch_dim);
  const double sparse =
      2.0 * md *
      static_cast<double>(std::min(kSparseSignNnz, sketch_dim));
  const Index d2 = next_pow2(dim);
  double lg = 0.0;
  for (Index p = 1; p < d2; p <<= 1) lg += 1.0;
  const double srht = md + static_cast<double>(m) *
                               (static_cast<double>(d2) * lg +
                                static_cast<double>(sketch_dim));
  SketchKind best = SketchKind::DenseGaussian;
  double cost = dense;
  if (srht < cost) {
    best = SketchKind::Srht;
    cost = srht;
  }
  if (sparse < cost) {
    best = SketchKind::SparseSign;
  }
  return best;
}

void fwht(double* data, Index n) {
  PARSVD_CHECK(n > 0 && (n & (n - 1)) == 0, "fwht length must be a power of two");
  for (Index len = 1; len < n; len <<= 1) {
    for (Index i = 0; i < n; i += len << 1) {
      double* even = data + i;
      double* odd = even + len;
      for (Index j = 0; j < len; ++j) {
        const double u = even[j];
        const double v = odd[j];
        even[j] = u + v;
        odd[j] = u - v;
      }
    }
  }
}

}  // namespace parsvd::sketch
