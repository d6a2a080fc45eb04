// The four end-to-end workloads of the benchmark: the paper's own runs
// (Listings 1-2 and Fig. 1a/b on Burgers, Alg. 2 / Fig. 1c APMOS, the
// Fig. 2 ERA5 parallel-IO pipeline), each driven through the library's
// public entry points only.
//
// A workload has three phases. setup() makes the inputs and is what
// setup_s times (repeated; the last repetition's data is kept).
// build_reference() computes what every pass is checked against and is
// not timed. solve() is one timed pass. A workload removes any files it
// wrote when it is destroyed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace bench_e2e {

using parsvd::Index;
using parsvd::Matrix;
using parsvd::Vector;

/// Per-pass tolerances of the correctness check (see README.md).
struct Tolerance {
  double sigma_rel = 0.0;     ///< |σ₁ − σ₁_ref| / σ₁_ref
  double subspace_rad = 0.0;  ///< largest principal angle, radians
  Index modes = 0;            ///< leading modes whose subspace is compared
};

/// What one pass produced and what the benchmark measured around it.
struct PassOutput {
  Vector s;      ///< singular values at the root
  Matrix modes;  ///< global left modes (rows = global grid)
  std::uint64_t pmpi_messages = 0;
  std::uint64_t pmpi_bytes = 0;
  double io_read_s = 0.0;  ///< time in the timing wrapper's next_batch
  std::uint64_t io_read_bytes = 0;
};

struct CheckResult {
  double sigma_err = 0.0;
  double subspace_err = 0.0;
  bool ok = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Rank count P: the number of rank threads whose time is split.
  virtual int ranks() const = 0;
  /// Snapshots factored per pass.
  virtual Index snapshots() const = 0;
  /// Workload parameters as a JSON object, for the run manifest.
  virtual std::string params_json() const = 0;

  virtual void setup() = 0;
  /// Set-up repetitions in an untraced run; setup_s is their median.
  virtual int setup_reps() const { return 9; }
  virtual void build_reference() = 0;
  virtual PassOutput solve() = 0;

  /// Leading-σ relative error and subspace error of `out` against the
  /// reference, judged against the workload's tolerance.
  CheckResult check(const PassOutput& out) const;

 protected:
  Tolerance tol_;
  Vector ref_s_;
  Matrix ref_modes_;
};

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds a workload by name; `smoke` selects the reduced-size variant
/// used by the benchmark's own tests. `scratch_dir` holds any files the
/// workload writes. Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& scratch_dir);

}  // namespace bench_e2e
