// The layer split on a hand-built span list: nested spans, pool.chunk on
// a rank row, pool-worker threads outside the rank rows, prefetch
// workers sharing one track, spans clipped at the window, unnamed-layer
// spans and instants (which must be ignored).
#include <cmath>
#include <cstdio>
#include <numeric>

#include "layers.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-15) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

double layer(const bench_e2e::LayerSplit& s, bench_e2e::Layer l) {
  return s.layer_s[static_cast<std::size_t>(l)];
}

}  // namespace

int main() {
  using bench_e2e::Layer;
  using bench_e2e::Span;
  constexpr double ns = 1e-9;
  const std::vector<Span> spans = {
      // Rank 0: a streaming step.
      {1, 0, "stream.run", 0, 900},
      {1, 0, "stream.ingest", 0, 100},
      {1, 0, "pssvd.incorporate", 100, 700},
      {1, 0, "linalg.gemm", 100, 300},
      {1, 0, "pool.parallel_for", 150, 250},
      {1, 0, "pool.chunk", 150, 100},  // the rank's own share of the gemm
      {1, 0, "comm.gather.flat", 400, 200},
      {1, 0, "comm.wait", 450, 100},
      {1, 0, "comm.timeout", 500, -1},  // instant
      {1, 0, "pssvd.root_svd", 600, 150},
      {1, 0, "linalg.gemm", 700, 20},
      // Rank 1: APMOS with a sketch, an unmapped span, and a span that
      // runs past the end of the window.
      {2, 0, "apmos.svd", 100, 400},
      {2, 0, "sketch.distributed.apply", 200, 100},
      {2, 0, "bench.unmapped", 300, 50},
      {2, 0, "stream.run", 900, 300},
      // A pool worker: a chunk with a nested parallel_for, and a chunk
      // that runs a gemm.
      {0, 1, "pool.chunk", 100, 200},
      {0, 1, "pool.parallel_for", 150, 100},
      {0, 1, "pool.chunk", 160, 40},
      {0, 1, "pool.chunk", 400, 50},
      {0, 1, "linalg.gemm", 410, 30},
      {0, 1, "comm.timeout", 420, -1},  // instant
      // Two prefetch workers on the shared track, overlapping.
      {0, 91, "prefetch.ingest", 0, 300},
      {0, 91, "prefetch.ingest", 100, 100},
      // A thread outside the rank rows with rank-like spans.
      {5, 0, "comm.wait", 0, 1000},
  };

  const bench_e2e::LayerSplit s = bench_e2e::split_layers(spans, 0, 1000, 2);

  expect_near(s.rank_time_s, 2000 * ns, "rank time");
  expect_near(layer(s, Layer::CoreSelf), (100 + 50 + 250 + 100) * ns, "core");
  expect_near(layer(s, Layer::IngestWait), 100 * ns, "ingest");
  expect_near(layer(s, Layer::LinalgSelf), (50 + 100 + 20) * ns, "linalg");
  expect_near(layer(s, Layer::PoolWait), 150 * ns, "pool wait");
  expect_near(layer(s, Layer::PmpiSelf), 100 * ns, "pmpi self");
  expect_near(layer(s, Layer::PmpiWait), 100 * ns, "pmpi wait");
  expect_near(layer(s, Layer::LinalgFactor), 130 * ns, "factor");
  expect_near(layer(s, Layer::SketchSelf), 100 * ns, "sketch");
  expect_near(layer(s, Layer::Untraced), (100 + 50 + 500) * ns, "untraced");
  const double sum = std::accumulate(s.layer_s.begin(), s.layer_s.end(), 0.0);
  expect_near(sum, s.rank_time_s, "layers sum to P x wall");

  expect_near(s.rank_busy_s.at(0), 650 * ns, "rank 0 busy");
  expect_near(s.rank_busy_s.at(1), 1000 * ns, "rank 1 busy");
  expect_near(s.pool_worker_s, (200 + 50) * ns, "pool worker");
  expect_near(s.prefetch_s, 400 * ns, "prefetch");
  expect_near(s.linalg_all_threads_s, (170 + 30) * ns, "linalg all threads");

  // A rank with no spans at all is untraced for the whole window.
  const bench_e2e::LayerSplit empty = bench_e2e::split_layers({}, 0, 500, 3);
  expect_near(layer(empty, Layer::Untraced), 1500 * ns, "empty ranks");
  expect_near(empty.rank_time_s, 1500 * ns, "empty rank time");

  if (failures == 0) std::printf("layers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
