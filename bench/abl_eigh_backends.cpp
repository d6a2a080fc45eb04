// Ablation: symmetric eigensolver backend (cyclic Jacobi vs
// tridiagonalization + QL) on Gram matrices — the kernel behind the
// method-of-snapshots SVD that APMOS stage 1 runs on every rank. The
// crossover motivates SvdOptions::eigh_method. The partial rows keep the
// 50 largest pairs (APMOS's r1) through EighOptions::rank, next to the
// full tridiagonal solve at n = 256 and at APMOS's n = 800.
#include <benchmark/benchmark.h>

#include "linalg/blas.hpp"
#include "linalg/eigh.hpp"
#include "support/rng.hpp"

namespace {

using namespace parsvd;

Matrix gram_input(Index n, std::uint64_t seed) {
  Rng rng(seed);
  const Matrix a = Matrix::gaussian(4 * n, n, rng);
  return gram(a);
}

void BM_EighJacobi(benchmark::State& state) {
  const Matrix g = gram_input(state.range(0), 5);
  EighOptions opts;
  opts.method = EighMethod::Jacobi;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigh(g, opts));
  }
}

void BM_EighTridiagonal(benchmark::State& state) {
  const Matrix g = gram_input(state.range(0), 5);
  EighOptions opts;
  opts.method = EighMethod::Tridiagonal;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigh(g, opts));
  }
}

void BM_EighTridiagonalPartial(benchmark::State& state) {
  const Matrix g = gram_input(state.range(0), 5);
  EighOptions opts;
  opts.method = EighMethod::Tridiagonal;
  opts.rank = state.range(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigh(g, opts));
  }
}

BENCHMARK(BM_EighJacobi)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EighTridiagonal)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EighTridiagonalPartial)->Args({256, 50})->Args({800, 50})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
