#include "workloads.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/apmos.hpp"
#include "core/parallel_streaming.hpp"
#include "core/streaming.hpp"
#include "io/snapshot_store.hpp"
#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "pmpi/comm.hpp"
#include "post/metrics.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"
#include "workloads/era5_synthetic.hpp"
#include "workloads/streaming_executor.hpp"

namespace bench_e2e {
namespace {

namespace wl = parsvd::workloads;
using parsvd::ApmosOptions;
using parsvd::StreamingOptions;
using parsvd::SvdOptions;
using parsvd::SvdMethod;
using parsvd::EighMethod;

/// Times next_batch of the source it wraps: the io.read_s layer metric.
/// Runs on the prefetch worker thread when prefetch is on.
class TimedSource final : public wl::BatchSource {
 public:
  TimedSource(std::unique_ptr<wl::BatchSource> inner, double& seconds,
              std::uint64_t& bytes)
      : inner_(std::move(inner)), seconds_(seconds), bytes_(bytes) {}

  Index rows() const override { return inner_->rows(); }
  Index total_snapshots() const override { return inner_->total_snapshots(); }
  Index position() const override { return inner_->position(); }
  Matrix next_batch(Index max_cols) override {
    const auto t0 = std::chrono::steady_clock::now();
    Matrix batch = inner_->next_batch(max_cols);
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    bytes_ += static_cast<std::uint64_t>(batch.size()) * sizeof(double);
    return batch;
  }

 private:
  std::unique_ptr<wl::BatchSource> inner_;
  double& seconds_;
  std::uint64_t& bytes_;
};

std::string burgers_json(const wl::BurgersConfig& cfg) {
  std::ostringstream os;
  os << "\"grid_points\": " << cfg.grid_points
     << ", \"snapshots\": " << cfg.snapshots
     << ", \"reynolds\": " << cfg.reynolds;
  return os.str();
}

std::string tolerance_json(const Tolerance& t) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"tolerance\": {\"sigma_rel\": %.3g, \"subspace_rad\": "
                "%.3g, \"modes\": %lld}",
                t.sigma_rel, t.subspace_rad, static_cast<long long>(t.modes));
  return buf;
}

/// Shared Burgers data: the paper's Fig. 1 snapshot matrix, held as P row
/// blocks (one per rank) and checked against a method-of-snapshots batch
/// SVD of the whole matrix.
class BurgersWorkload : public Workload {
 public:
  BurgersWorkload(bool smoke, int ranks) : ranks_(ranks) {
    cfg_.grid_points = smoke ? 1024 : 16384;
    cfg_.snapshots = smoke ? 80 : 800;
    cfg_.reynolds = 1000;
  }

  int ranks() const override { return ranks_; }
  Index snapshots() const override { return cfg_.snapshots; }

  /// Streams rank r's row block batch by batch. A MatrixBatchSource would
  /// take the block by value, and the whole-block copy would then be timed
  /// as part of every pass.
  std::unique_ptr<wl::BatchSource> block_source(int r) const {
    const Matrix& block = blocks_[static_cast<std::size_t>(r)];
    return std::make_unique<wl::GeneratorBatchSource>(
        block.rows(), block.cols(), [&block](Index col0, Index ncols) {
          return block.block(0, col0, block.rows(), ncols);
        });
  }

  void setup() override {
    const wl::Burgers burgers(cfg_);
    blocks_.clear();
    for (int r = 0; r < ranks_; ++r) {
      const auto part = wl::partition_rows(cfg_.grid_points, ranks_, r);
      blocks_.push_back(
          burgers.snapshot_block(part.offset, part.count, 0, cfg_.snapshots));
    }
  }

  void build_reference() override {
    SvdOptions sopts;
    sopts.method = SvdMethod::MethodOfSnapshots;
    sopts.eigh_method = EighMethod::Tridiagonal;
    sopts.rank = tol_.modes;
    parsvd::SvdResult ref = parsvd::svd(parsvd::vcat(blocks_), sopts);
    ref_s_ = std::move(ref.s);
    ref_modes_ = std::move(ref.u);
  }

 protected:
  wl::BurgersConfig cfg_;
  int ranks_;
  std::vector<Matrix> blocks_;  // rank r's rows of the snapshot matrix
};

/// Levy-Lindenbaum with ff = 1 truncates to K modes after every batch, so
/// it tracks the batch SVD only in its leading modes: measured 3.4e-6 and
/// 5.5e-3 rad over three modes (1.8e-5 and 6.3e-3 rad over two modes in
/// the smoke size, K = 5). Burgers has no seed, so these do not vary.
Tolerance streaming_tolerance(bool smoke) {
  return smoke ? Tolerance{1e-4, 2e-2, 2} : Tolerance{2e-5, 2e-2, 3};
}

StreamingOptions burgers_streaming_options(bool smoke, std::uint64_t seed) {
  StreamingOptions opts;
  opts.num_modes = smoke ? 5 : 10;
  opts.forget_factor = 1.0;
  opts.randomized.seed = seed;
  return opts;
}

class StreamBurgersP4 final : public BurgersWorkload {
 public:
  StreamBurgersP4(bool smoke, std::uint64_t seed)
      : BurgersWorkload(smoke, 4),
        opts_(burgers_streaming_options(smoke, seed)) {
    exec_.batch_cols = smoke ? 8 : 20;
    tol_ = streaming_tolerance(smoke);
  }

  const char* name() const override { return "stream_burgers_p4"; }

  std::string params_json() const override {
    std::ostringstream os;
    os << "{" << burgers_json(cfg_) << ", \"ranks\": " << ranks_
       << ", \"solver\": \"ParallelStreamingSVD\", \"tsqr\": \"direct\""
       << ", \"num_modes\": " << opts_.num_modes
       << ", \"batch_cols\": " << exec_.batch_cols
       << ", \"forget_factor\": " << opts_.forget_factor
       << ", \"prefetch\": " << (exec_.prefetch ? "true" : "false")
       << ", \"randomized_seed\": " << opts_.randomized.seed << ", "
       << tolerance_json(tol_) << "}";
    return os.str();
  }

  PassOutput solve() override {
    PassOutput out;
    auto ctx = parsvd::pmpi::run_with_stats(
        ranks_, [&](parsvd::pmpi::Communicator& comm) {
          parsvd::ParallelStreamingSVD svd(comm, opts_,
                                           parsvd::TsqrVariant::Direct);
          wl::run_streaming(svd, block_source(comm.rank()), exec_);
          if (comm.is_root()) {
            out.s = svd.singular_values();
            out.modes = svd.modes();
          }
        });
    out.pmpi_messages = ctx->total_messages();
    out.pmpi_bytes = ctx->total_bytes();
    return out;
  }

 private:
  StreamingOptions opts_;
  wl::StreamingExecutorOptions exec_;
};

class StreamBurgersSerial final : public BurgersWorkload {
 public:
  StreamBurgersSerial(bool smoke, std::uint64_t seed)
      : BurgersWorkload(smoke, 1),
        opts_(burgers_streaming_options(smoke, seed)) {
    exec_.batch_cols = smoke ? 8 : 20;
    tol_ = streaming_tolerance(smoke);
  }

  const char* name() const override { return "stream_burgers_serial"; }

  std::string params_json() const override {
    std::ostringstream os;
    os << "{" << burgers_json(cfg_) << ", \"ranks\": 1"
       << ", \"solver\": \"SerialStreamingSVD\""
       << ", \"num_modes\": " << opts_.num_modes
       << ", \"batch_cols\": " << exec_.batch_cols
       << ", \"forget_factor\": " << opts_.forget_factor
       << ", \"prefetch\": " << (exec_.prefetch ? "true" : "false")
       << ", \"randomized_seed\": " << opts_.randomized.seed << ", "
       << tolerance_json(tol_) << "}";
    return os.str();
  }

  PassOutput solve() override {
    PassOutput out;
    parsvd::SerialStreamingSVD svd(opts_);
    wl::run_streaming(svd, block_source(0), exec_);
    out.s = svd.singular_values();
    out.modes = svd.modes();
    return out;
  }

 private:
  StreamingOptions opts_;
  wl::StreamingExecutorOptions exec_;
};

class ApmosBurgersP4 final : public BurgersWorkload {
 public:
  ApmosBurgersP4(bool smoke, std::uint64_t seed) : BurgersWorkload(smoke, 4) {
    // bench/fig1_common.hpp: the paper's randomized+parallel deployment.
    opts_.r1 = smoke ? 10 : 50;
    opts_.r2 = smoke ? 3 : 5;
    opts_.low_rank = true;
    opts_.randomized.oversampling = 8;
    opts_.randomized.power_iterations = 2;
    opts_.randomized.seed = seed;
    opts_.method = SvdMethod::MethodOfSnapshots;
    opts_.eigh_method = EighMethod::Tridiagonal;
    // Randomized root SVD (q = 2) of the truncated W: measured 1e-15 and
    // up to 1.4e-4 rad over five modes (2e-7 and 1.7e-4 rad for three
    // modes in the smoke size).
    tol_ = smoke ? Tolerance{1e-5, 2e-3, 3} : Tolerance{1e-9, 2e-3, 5};
  }

  const char* name() const override { return "apmos_burgers_p4"; }

  std::string params_json() const override {
    std::ostringstream os;
    os << "{" << burgers_json(cfg_) << ", \"ranks\": " << ranks_
       << ", \"solver\": \"apmos_svd\", \"r1\": " << opts_.r1
       << ", \"r2\": " << opts_.r2 << ", \"low_rank\": true"
       << ", \"oversampling\": " << opts_.randomized.oversampling
       << ", \"power_iterations\": " << opts_.randomized.power_iterations
       << ", \"local_method\": \"method_of_snapshots\""
       << ", \"eigh_method\": \"tridiagonal\""
       << ", \"randomized_seed\": " << opts_.randomized.seed << ", "
       << tolerance_json(tol_) << "}";
    return os.str();
  }

  PassOutput solve() override {
    PassOutput out;
    std::vector<Matrix> u_local(static_cast<std::size_t>(ranks_));
    auto ctx = parsvd::pmpi::run_with_stats(
        ranks_, [&](parsvd::pmpi::Communicator& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          parsvd::ApmosResult res =
              parsvd::apmos_svd(comm, blocks_[r], opts_);
          // Each rank owns its slice of the modes; the benchmark keeps it
          // for the check without adding a gather to the measured pass.
          u_local[r] = std::move(res.u_local);
          if (comm.is_root()) out.s = std::move(res.s);
        });
    out.pmpi_messages = ctx->total_messages();
    out.pmpi_bytes = ctx->total_bytes();
    out.modes = parsvd::vcat(u_local);
    return out;
  }

 private:
  ApmosOptions opts_;
};

/// Fig. 2: synthetic ERA5 surface pressure written to a SnapshotStore in
/// set-up and streamed back per rank through StoreBatchSource.
class Era5StoreP4 final : public Workload {
 public:
  Era5StoreP4(bool smoke, std::uint64_t seed, const std::string& scratch_dir)
      : path_(scratch_dir + "/era5_store." + std::to_string(getpid()) +
              ".snap") {
    cfg_.n_lon = smoke ? 36 : 144;
    cfg_.n_lat = smoke ? 18 : 72;
    cfg_.snapshots = smoke ? 200 : 2000;
    cfg_.seed = seed;
    chunk_cols_ = smoke ? 16 : 64;
    opts_.num_modes = 4;
    opts_.forget_factor = 1.0;
    opts_.randomized.seed = seed;
    exec_.batch_cols = smoke ? 20 : 200;
    exec_.prefetch = true;  // Fig. 2 overlaps the reads with the solve
    // Against the planted modes, which the white noise and the K = 4
    // truncation perturb: measured up to 2.8e-5 and 2.7e-2 rad over three
    // modes (2.4e-4 and 2.2e-2 rad in the smoke size).
    tol_ = {1e-3, 0.1, 3};
  }

  const char* name() const override { return "era5_store_p4"; }
  int ranks() const override { return kRanks; }
  Index snapshots() const override { return cfg_.snapshots; }
  int setup_reps() const override { return 5; }

  std::string params_json() const override {
    std::ostringstream os;
    os << "{\"n_lon\": " << cfg_.n_lon << ", \"n_lat\": " << cfg_.n_lat
       << ", \"snapshots\": " << cfg_.snapshots
       << ", \"planted_modes\": " << cfg_.n_modes
       << ", \"era5_seed\": " << cfg_.seed
       << ", \"chunk_cols\": " << chunk_cols_ << ", \"ranks\": " << kRanks
       << ", \"solver\": \"ParallelStreamingSVD\", \"tsqr\": \"direct\""
       << ", \"num_modes\": " << opts_.num_modes
       << ", \"batch_cols\": " << exec_.batch_cols
       << ", \"forget_factor\": " << opts_.forget_factor
       << ", \"prefetch\": " << (exec_.prefetch ? "true" : "false")
       << ", \"randomized_seed\": " << opts_.randomized.seed << ", "
       << tolerance_json(tol_) << "}";
    return os.str();
  }

  void setup() override {
    era_ = std::make_unique<wl::Era5Synthetic>(cfg_);
    parsvd::io::SnapshotWriter writer(path_, era_->grid_size(), chunk_cols_);
    Index written = 0;
    while (written < cfg_.snapshots) {
      const Index take = std::min<Index>(256, cfg_.snapshots - written);
      writer.append_batch(era_->snapshot_block(0, era_->grid_size(), written,
                                               take, /*subtract_mean=*/true));
      written += take;
    }
    writer.close();
  }

  /// The planted field Φ Aᵀ has left singular vectors Φ·V and singular
  /// values S, where A = U S Vᵀ is the SVD of the planted amplitudes.
  void build_reference() override {
    SvdOptions sopts;
    sopts.method = SvdMethod::Jacobi;
    parsvd::SvdResult amp = parsvd::svd(era_->amplitudes(), sopts);
    ref_s_ = std::move(amp.s);
    ref_modes_ = parsvd::matmul(era_->true_modes(), amp.v);
  }

  PassOutput solve() override {
    PassOutput out;
    std::vector<double> read_s(kRanks, 0.0);
    std::vector<std::uint64_t> read_bytes(kRanks, 0);
    auto ctx = parsvd::pmpi::run_with_stats(
        kRanks, [&](parsvd::pmpi::Communicator& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          const auto part =
              wl::partition_rows(era_->grid_size(), kRanks, comm.rank());
          parsvd::ParallelStreamingSVD svd(comm, opts_,
                                           parsvd::TsqrVariant::Direct);
          wl::run_streaming(
              svd,
              std::make_unique<TimedSource>(
                  std::make_unique<wl::StoreBatchSource>(path_, part.offset,
                                                         part.count),
                  read_s[r], read_bytes[r]),
              exec_);
          if (comm.is_root()) {
            out.s = svd.singular_values();
            out.modes = svd.modes();
          }
        });
    out.pmpi_messages = ctx->total_messages();
    out.pmpi_bytes = ctx->total_bytes();
    for (int r = 0; r < kRanks; ++r) {
      out.io_read_s += read_s[static_cast<std::size_t>(r)];
      out.io_read_bytes += read_bytes[static_cast<std::size_t>(r)];
    }
    return out;
  }

  ~Era5StoreP4() override { std::remove(path_.c_str()); }

 private:
  static constexpr int kRanks = 4;
  wl::Era5Config cfg_;
  Index chunk_cols_ = 64;
  StreamingOptions opts_;
  wl::StreamingExecutorOptions exec_;
  std::string path_;
  std::unique_ptr<wl::Era5Synthetic> era_;
};

}  // namespace

CheckResult Workload::check(const PassOutput& out) const {
  CheckResult c;
  const Index k = tol_.modes;
  if (out.s.size() < k || out.modes.cols() < k ||
      out.modes.rows() != ref_modes_.rows()) {
    c.sigma_err = c.subspace_err = INFINITY;
    return c;
  }
  c.sigma_err = std::abs(out.s[0] - ref_s_[0]) / ref_s_[0];
  c.subspace_err = parsvd::post::max_principal_angle(
      out.modes.left_cols(k), ref_modes_.left_cols(k));
  // Written so that NaN fails.
  c.ok = c.sigma_err <= tol_.sigma_rel && c.subspace_err <= tol_.subspace_rad;
  return c;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "stream_burgers_p4", "apmos_burgers_p4", "era5_store_p4",
      "stream_burgers_serial"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& scratch_dir) {
  if (name == "stream_burgers_p4") {
    return std::make_unique<StreamBurgersP4>(smoke, seed);
  }
  if (name == "apmos_burgers_p4") {
    return std::make_unique<ApmosBurgersP4>(smoke, seed);
  }
  if (name == "era5_store_p4") {
    return std::make_unique<Era5StoreP4>(smoke, seed, scratch_dir);
  }
  if (name == "stream_burgers_serial") {
    return std::make_unique<StreamBurgersSerial>(smoke, seed);
  }
  return nullptr;
}

}  // namespace bench_e2e
