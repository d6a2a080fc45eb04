// Span tracing with per-thread ring buffers and Chrome trace-event
// output.
//
//   PARSVD_TRACE_SCOPE("tsqr.factor_panel");   // RAII duration span
//   PARSVD_TRACE_INSTANT("comm.timeout");      // point event
//
// Design:
//   * Each thread owns one fixed-capacity TraceRing it alone writes to —
//     recording a span is two clock reads plus one slot store, with no
//     shared locks anywhere on the hot path. When tracing is disarmed a
//     scope costs one relaxed atomic load; when compiled out
//     (-DPARSVD_OBS_DISABLE) the macros expand to nothing.
//   * Rings overwrite their oldest events on overflow (the drop count is
//     kept) so tracing can never stall or OOM a run.
//   * Threads carry an identity (rank, tid, label) that maps onto the
//     Chrome trace layout: each pmpi rank is a process row (pid), each
//     thread a track (tid). pmpi::run_on, the ThreadPool workers and the
//     prefetch worker set their identity at spawn; unidentified threads
//     get a stable-enough fallback tid.
//   * flush_json() serializes every ring, events sorted by
//     (pid, tid, start, -dur, name): with a deterministic workload and a
//     FakeClock the output is byte-identical run to run. Flushing
//     requires writers to be quiescent (call it after joining workers /
//     after run_on returns).
//
// Span names must be string literals (the ring stores the pointer).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.hpp"

namespace parsvd::obs {

struct TraceEvent {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;  // < 0 marks an instant event
};

/// Single-writer ring of trace events. Public for the unit tests; normal
/// code only touches it through the macros below.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(std::size_t capacity);

  void push(const TraceEvent& e);
  std::uint64_t recorded() const {
    return count_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t dropped() const;
  /// Retained events, oldest first. Writer must be quiescent.
  std::vector<TraceEvent> snapshot() const;
  void clear() { count_.store(0, std::memory_order_release); }

  // Track identity, fixed at registration time.
  int pid = 0;  // rank + 1; 0 = threads shared across ranks
  int tid = 0;
  std::string label;

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> count_{0};
};

namespace trace {

/// Runtime switch. Initialized from PARSVD_TRACE at first query; arm()
/// overrides it either way.
bool armed();
void arm(bool on);

/// Per-thread ring capacity for rings created after this call (default:
/// PARSVD_TRACE_BUFFER, else 16384 events).
void set_ring_capacity(std::size_t events);

/// Largest PARSVD_TRACE_BUFFER accepted (events per thread); a larger
/// value is a ConfigError.
inline constexpr std::int64_t kMaxEnvRingCapacity = std::int64_t{1} << 24;

/// Record an instant event on the calling thread's track.
void instant(const char* name);

/// All retained events of every registered ring with their track
/// identity, in flush order. Writers must be quiescent.
struct FlushedEvent {
  int pid;
  int tid;
  TraceEvent event;
};
std::vector<FlushedEvent> snapshot();

/// Chrome trace-event JSON (Perfetto-loadable): per-rank process rows,
/// per-thread tracks, microsecond timestamps with fixed formatting.
std::string flush_json();
/// flush_json() to a file; returns false when the file cannot be written.
bool flush_json_to(const std::string& path);

/// Total events overwritten in full rings since the last reset.
std::uint64_t dropped();

/// Clear every registered ring (threads keep their rings and identity).
void reset();

}  // namespace trace

/// Bind the calling thread to a trace track: `rank` >= 0 places it on
/// that rank's process row (tid 0 is the rank's main thread); rank < 0
/// places it on the shared row. Also consumed by the logger's rank
/// prefix. Call before the thread's first span.
void set_thread_identity(int rank, int tid, const char* label);

/// Rank bound to the calling thread, or -1.
int current_rank();

class TraceScope {
 public:
  explicit TraceScope(const char* name)
      : name_(name),
        start_ns_(trace::armed() ? clock().now_ns() : kDisarmed) {}
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  static constexpr std::int64_t kDisarmed = INT64_MIN;
  const char* name_;
  std::int64_t start_ns_;
};

}  // namespace parsvd::obs

#if defined(PARSVD_OBS_DISABLE)
#define PARSVD_TRACE_SCOPE(name)
#define PARSVD_TRACE_INSTANT(name)
#else
#define PARSVD_OBS_CONCAT_INNER(a, b) a##b
#define PARSVD_OBS_CONCAT(a, b) PARSVD_OBS_CONCAT_INNER(a, b)
#define PARSVD_TRACE_SCOPE(name) \
  ::parsvd::obs::TraceScope PARSVD_OBS_CONCAT(parsvd_trace_scope_, __LINE__) { name }
#define PARSVD_TRACE_INSTANT(name)                    \
  do {                                                \
    if (::parsvd::obs::trace::armed()) {              \
      ::parsvd::obs::trace::instant(name);            \
    }                                                 \
  } while (false)
#endif
