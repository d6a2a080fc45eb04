// Fixed-size thread pool with a blocking parallel_for.
//
// Used by the shared-memory GEMM kernels (linalg) for intra-rank
// parallelism; the distributed ranks themselves are managed by pmpi, not by
// this pool.  parallel_for splits [begin, end) into contiguous chunks, runs
// them on the workers plus the calling thread, and rethrows the first
// worker exception on completion.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace parsvd {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run body(i) for every i in [begin, end), partitioned into at most
  /// `grain`-sized contiguous chunks. Blocks until all chunks finish.
  /// grain == 0 picks a chunk size that yields ~4 chunks per worker.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body_range,
                    std::size_t grain = 0);

  /// Process-wide pool sized from PARSVD_NUM_THREADS (default: hardware).
  static ThreadPool& global();

  /// Largest PARSVD_NUM_THREADS the global pool accepts; a larger value
  /// is a ConfigError.
  static constexpr std::int64_t kMaxEnvThreads = 1024;

  /// Replace the process-wide pool with one of `threads` workers (0 =
  /// hardware). Used by benchmarks sweeping thread counts; must not be
  /// called while a parallel_for on the old pool is in flight.
  static void set_global_threads(std::size_t threads);

 private:
  struct Group;

  struct Task {
    std::function<void(std::size_t, std::size_t)> body;
    std::size_t begin;
    std::size_t end;
    // Completion bookkeeping shared by all chunks of one parallel_for.
    Group* group;
  };

  struct Group {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;
    std::exception_ptr error;
  };

  void worker_loop();
  bool run_one();  // returns false if queue empty

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace parsvd
