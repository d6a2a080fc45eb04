// Splits each rank's time in one traced pass into layers, from the spans
// the library already records.
//
// A rank row is the main thread of one rank: trace pid = rank + 1, tid 0
// (pmpi rank threads, or the serial caller bound with
// obs::set_thread_identity(0, 0, ...)). Each rank row contributes exactly
// the pass window [t0, t1], so the layers of all rank rows sum to
// P × wall:
//
//   * a span's self time is its duration minus the time covered by its
//     child spans on the same thread, and goes to the layer its name
//     maps to (layer_of);
//   * pool.chunk on a rank row is work the rank thread did itself while
//     its parallel_for drained the queue: its self time goes to the
//     layer of the nearest enclosing span that is not a pool.* span, so
//     pool.parallel_for self time is only the wait for the workers;
//   * time on a rank row covered by no span, and the self time of spans
//     whose names map to no layer, is Untraced.
//
// Instants (dur < 0) are ignored. Threads outside the rank rows (pool
// workers, prefetch workers) are not part of P × wall; the split reports
// their pool.chunk and prefetch.ingest seconds separately.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace bench_e2e {

enum class Layer : int {
  LinalgSelf,    ///< linalg.* spans
  LinalgFactor,  ///< self time of the SVD / eigensolver wrapper spans
  SketchSelf,    ///< sketch.*
  CoreSelf,      ///< other tsqr.*, apmos.*, pssvd.*, stream.*
  PmpiWait,      ///< comm.wait
  PmpiSelf,      ///< other comm.*
  PoolWait,      ///< pool.parallel_for self time
  IngestWait,    ///< stream.ingest
  Untraced,      ///< the remainder
  Count,
};
constexpr int kLayerCount = static_cast<int>(Layer::Count);

/// Metric name of each layer's share, in Layer order.
const char* layer_metric(Layer layer);

/// One span or instant, as obs::trace::snapshot() reports it.
struct Span {
  int pid = 0;
  int tid = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;  ///< < 0: instant
};

struct LayerSplit {
  /// Seconds per layer summed over the rank rows; sums to rank_time_s.
  std::array<double, kLayerCount> layer_s{};
  /// P × wall, seconds.
  double rank_time_s = 0.0;
  /// Per rank: window minus pmpi wait, pool wait and ingest wait.
  std::vector<double> rank_busy_s;
  /// pool.chunk seconds on threads outside the rank rows (outermost
  /// chunks only).
  double pool_worker_s = 0.0;
  /// prefetch.ingest seconds, all threads.
  double prefetch_s = 0.0;
  /// linalg.* self time on every thread, rank rows included.
  double linalg_all_threads_s = 0.0;
};

/// Splits the spans of one pass over the window [t0_ns, t1_ns] for
/// `ranks` rank rows (pids 1..ranks, tid 0). Spans are clipped to the
/// window.
LayerSplit split_layers(const std::vector<Span>& spans, std::int64_t t0_ns,
                        std::int64_t t1_ns, int ranks);

}  // namespace bench_e2e
