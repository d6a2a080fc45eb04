// bench_e2e: times the paper's workloads end to end and splits their
// rank-time by layer.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--perturb] [--scratch DIR] [--manifest PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the layer
// metrics: exact counters from untraced passes, then rank-time shares
// from traced passes. The last stdout line is the result object; the
// line before it is the run manifest. See README.md for the workloads
// and what each metric means.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace bench_e2e {
namespace {

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  bool perturb = false;  // tests: corrupt each result so the check fails
  std::string scratch = ".";
  std::string manifest_path;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "bench_e2e: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--perturb") {
      a.perturb = true;
    } else if (flag == "--scratch") {
      a.scratch = value();
    } else if (flag == "--manifest") {
      a.manifest_path = value();
    } else {
      usage_error("unknown argument " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage_error("usage: bench_e2e --workload NAME --seed N --seconds S "
                "--trace 0|1 [--smoke] [--scratch DIR] [--manifest PATH]");
  }
  if (!(a.seconds > 0.0)) usage_error("--seconds must be positive");
  return a;
}

/// PARSVD_* variables of the environment, name-sorted.
std::map<std::string, std::string> parsvd_env() {
  std::map<std::string, std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("PARSVD_", 0) != 0) continue;
    const auto eq = kv.find('=');
    out[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
  }
  return out;
}

// ---------------------------------------------------------- host probes

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Resets the kernel's peak-RSS mark to the current RSS (a no-op where
/// /proc/self/clear_refs is not writable).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set (VmHWM) in MiB; the ru_maxrss high-water mark where
/// /proc is unavailable.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Host-wide CPU time stolen from this machine by its hypervisor, in
/// seconds (the steal column of /proc/stat); 0 where it is not reported.
double steal_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : v) {
    if (!(f >> x)) return 0.0;
  }
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  if (!(f >> a >> b >> c)) return "null";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%.2f, %.2f, %.2f]", a, b, c);
  return buf;
}

// ------------------------------------------------------------- counters

/// The exact per-pass counters, as deltas of the process-wide registry
/// (plus the pass's own pmpi::Context for pmpi.*).
struct Counters {
  std::uint64_t pmpi_messages = 0;
  std::uint64_t pmpi_bytes = 0;
  std::uint64_t linalg_flops = 0;
  std::uint64_t linalg_gemm_calls = 0;
  std::uint64_t sketch_applies = 0;
  std::uint64_t sketch_flops = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t batches = 0;

  /// The counters the determinism check gates.
  bool same_exact(const Counters& o) const {
    return pmpi_messages == o.pmpi_messages && pmpi_bytes == o.pmpi_bytes &&
           linalg_flops == o.linalg_flops &&
           sketch_applies == o.sketch_applies &&
           sketch_flops == o.sketch_flops && batches == o.batches;
  }
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Counters global_counters() {
  Counters c;
  for (const auto& m : parsvd::obs::Registry::global().snapshot()) {
    if (m.kind != 'c') continue;
    const auto v = static_cast<std::uint64_t>(m.value);
    const std::string& n = m.name;
    if (n == "linalg.gemm.flops" || n == "linalg.gemm_f32.flops" ||
        n == "linalg.qr.flops" || n == "linalg.gram_compensated.flops") {
      c.linalg_flops += v;
    } else if (n == "linalg.gemm.calls" || n == "linalg.gemm_f32.calls") {
      c.linalg_gemm_calls += v;
    } else if (n.rfind("sketch.", 0) == 0 && ends_with(n, ".applies")) {
      c.sketch_applies += v;
    } else if (n.rfind("sketch.", 0) == 0 && ends_with(n, ".flops")) {
      c.sketch_flops += v;
    } else if (n == "pool.tasks") {
      c.pool_tasks = v;
    } else if (n == "stream.batches") {
      c.batches = v;
    }
  }
  return c;
}

Counters delta(const Counters& after, const Counters& before) {
  Counters d;
  d.linalg_flops = after.linalg_flops - before.linalg_flops;
  d.linalg_gemm_calls = after.linalg_gemm_calls - before.linalg_gemm_calls;
  d.sketch_applies = after.sketch_applies - before.sketch_applies;
  d.sketch_flops = after.sketch_flops - before.sketch_flops;
  d.pool_tasks = after.pool_tasks - before.pool_tasks;
  d.batches = after.batches - before.batches;
  return d;
}

// ---------------------------------------------------------------- passes

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  double io_read_s = 0.0;
  std::uint64_t io_read_bytes = 0;
  Counters counters;
  CheckResult check;
  std::optional<LayerSplit> split;  // traced passes only
  std::uint64_t dropped = 0;        // trace events lost (traced passes)
  std::size_t max_track_events = 0;
};

Pass run_pass(Workload& wl, bool traced, bool perturb, bool track_rss) {
  namespace trace = parsvd::obs::trace;
  Pass p;
  if (traced) {
    trace::reset();
    trace::arm(true);
  }
  if (track_rss) reset_peak_rss();
  const Counters before = global_counters();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0_ns = parsvd::obs::clock().now_ns();
  const double t0 = now_s();
  PassOutput out = wl.solve();
  const double t1 = now_s();
  const std::int64_t t1_ns = parsvd::obs::clock().now_ns();
  const double cpu1 = process_cpu_s();
  const Counters after = global_counters();
  if (track_rss) p.peak_rss_mb = peak_rss_mb();
  if (traced) trace::arm(false);

  p.wall_s = t1 - t0;
  p.cpu_s = cpu1 - cpu0;
  p.counters = delta(after, before);
  p.counters.pmpi_messages = out.pmpi_messages;
  p.counters.pmpi_bytes = out.pmpi_bytes;
  p.io_read_s = out.io_read_s;
  p.io_read_bytes = out.io_read_bytes;

  if (traced) {
    p.dropped = trace::dropped();
    std::vector<Span> spans;
    std::map<std::pair<int, int>, std::size_t> per_track;
    for (const auto& fe : trace::snapshot()) {
      spans.push_back({fe.pid, fe.tid, fe.event.name, fe.event.start_ns,
                       fe.event.dur_ns});
      p.max_track_events =
          std::max(p.max_track_events, ++per_track[{fe.pid, fe.tid}]);
    }
    p.split = split_layers(spans, t0_ns, t1_ns, wl.ranks());
    trace::reset();
  }

  if (perturb && out.s.size() > 0) out.s[0] *= 1.01;
  p.check = wl.check(out);
  return p;
}

/// Runs passes until `seconds` have passed and at least `min_passes` are
/// done, or until `cap_seconds` have passed.
std::vector<Pass> run_passes(Workload& wl, bool traced, const Args& args,
                             double seconds, std::size_t min_passes,
                             double cap_seconds) {
  std::vector<Pass> passes;
  const double start = now_s();
  while (true) {
    const double elapsed = now_s() - start;
    if (passes.size() >= min_passes && elapsed >= seconds) break;
    if (!passes.empty() && elapsed >= cap_seconds) break;
    passes.push_back(run_pass(wl, traced, args.perturb, !traced));
  }
  return passes;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
std::vector<double> collect(const std::vector<Pass>& passes, F f) {
  std::vector<double> out;
  for (const Pass& p : passes) out.push_back(f(p));
  return out;
}

/// The highest percentile of `v` with at least `beyond` samples above it:
/// the (beyond+1)-th largest value. Falls back to the maximum when there
/// are not enough samples. Returns {value, percentile}.
std::pair<double, double> tail(std::vector<double> v, std::size_t beyond) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) return {v.back(), 100.0};
  const std::size_t idx = n - beyond - 1;
  return {v[idx], 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n)};
}

// ---------------------------------------------------------------- output

class MetricsJson {
 public:
  /// A non-finite value is written as 0 and makes all_finite() false.
  void add(const char* name, double value, const char* unit) {
    finite_ = finite_ && std::isfinite(value);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name,
                  std::isfinite(value) ? value : 0.0, unit);
    body_ += buf;
  }
  void add_count(const char* name, std::uint64_t value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %llu, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name,
                  static_cast<unsigned long long>(value), unit);
    body_ += buf;
  }
  std::string str() const { return "{" + body_ + "}"; }
  bool all_finite() const { return finite_; }

 private:
  std::string body_;
  bool finite_ = true;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A manifest number; null when not finite.
std::string fmt(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

int run(const Args& args) {
  // An untraced run measures the library as shipped: armed tracing or an
  // injected fault plan would change what it times.
  const auto env = parsvd_env();
  for (const auto& [k, v] : env) {
    if (k.rfind("PARSVD_FAULT_", 0) == 0 || (!args.trace && k == "PARSVD_TRACE")) {
      usage_error(k + " is set; unset it to run the benchmark");
    }
  }
  // Every trace ring is created after this call, so all get this size;
  // a traced pass that still drops an event invalidates the run.
  // The busiest track records about 1.5k events per full-size pass.
  constexpr std::size_t kRingEvents = std::size_t{1} << 15;
  parsvd::obs::trace::set_ring_capacity(kRingEvents);
  parsvd::obs::trace::arm(false);

  const std::string load_start = loadavg();
  auto wl = make_workload(args.workload, args.seed, args.smoke, args.scratch);
  if (wl == nullptr) usage_error("unknown workload " + args.workload);
  if (wl->ranks() == 1) {
    // The serial caller is rank 0's row in the trace.
    parsvd::obs::set_thread_identity(0, 0, "serial-caller");
  }

  // Set-up: data generation (and, for ERA5, the store write), repeated;
  // setup_s is the median.
  const std::size_t setup_reps =
      args.trace ? 1 : static_cast<std::size_t>(args.smoke ? 2 : wl->setup_reps());
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < setup_reps; ++i) {
    const double t0 = now_s();
    wl->setup();
    setup_s.push_back(now_s() - t0);
  }
  wl->build_reference();

  // One warm-up pass (checked and counted, not timed) takes first-touch
  // page faults and pool start-up out of the measured passes.
  std::vector<Pass> warmup{run_pass(*wl, false, args.perturb, false)};
  const double measure_t0 = now_s();
  const double steal_t0 = steal_s();
  const double cap = std::max(3.0 * args.seconds, args.seconds + 60.0);
  std::vector<Pass> untraced, traced;
  constexpr std::size_t kTailBeyond = 10;
  if (!args.trace) {
    untraced = run_passes(*wl, false, args, args.seconds,
                          args.smoke ? 2 : kTailBeyond + 1, cap);
  } else {
    untraced = run_passes(*wl, false, args, 0.5 * args.seconds, 3, cap / 2);
    traced = run_passes(*wl, true, args, 0.5 * args.seconds, 3, cap / 2);
  }
  const double steal_frac =
      (steal_s() - steal_t0) /
      (static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)) * (now_s() - measure_t0));
  const std::string load_end = loadavg();

  // Correctness: every pass within tolerance, exact counters identical
  // from pass to pass, and (traced) no dropped events and layer shares
  // summing to P x wall.
  std::size_t attempted = 0, failed = 0;
  double worst_sigma = 0.0, worst_subspace = 0.0;
  bool deterministic = true;
  std::uint64_t dropped = 0;
  std::size_t max_track_events = 0;
  double worst_share_error = 0.0;
  const Counters& first = warmup.front().counters;
  for (const auto* set : {&warmup, &untraced, &traced}) {
    for (const Pass& p : *set) {
      ++attempted;
      if (!p.check.ok) ++failed;
      worst_sigma = std::max(worst_sigma, p.check.sigma_err);
      worst_subspace = std::max(worst_subspace, p.check.subspace_err);
      deterministic = deterministic && p.counters.same_exact(first);
      dropped += p.dropped;
      max_track_events = std::max(max_track_events, p.max_track_events);
      if (p.split) {
        const double sum = std::accumulate(p.split->layer_s.begin(),
                                           p.split->layer_s.end(), 0.0);
        worst_share_error =
            std::max(worst_share_error,
                     std::abs(sum - p.split->rank_time_s) / p.split->rank_time_s);
      }
    }
  }
  const bool shares_ok = worst_share_error < 1e-9;

  MetricsJson metrics;
  std::size_t tail_samples = 0;
  double tail_percentile = 0.0;
  const auto wall = collect(untraced, [](const Pass& p) { return p.wall_s; });
  if (!args.trace) {
    const auto [tail_value, pct] = tail(wall, kTailBeyond);
    tail_samples = wall.size();
    tail_percentile = pct;
    const double total_wall = std::accumulate(wall.begin(), wall.end(), 0.0);
    metrics.add("solve_s", median(wall), "s");
    metrics.add("solve_tail_s", tail_value, "s");
    metrics.add("snapshots_per_s",
                static_cast<double>(wl->snapshots()) *
                    static_cast<double>(wall.size()) / total_wall,
                "1/s");
    metrics.add("cpu_s",
                median(collect(untraced, [](const Pass& p) { return p.cpu_s; })),
                "s");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("peak_rss_mb",
                median(collect(untraced,
                               [](const Pass& p) { return p.peak_rss_mb; })),
                "MiB");
  } else {
    const Counters& c = untraced.front().counters;
    metrics.add_count("pmpi.messages", c.pmpi_messages, "count");
    metrics.add_count("pmpi.bytes", c.pmpi_bytes, "B");
    metrics.add_count("linalg.flops", c.linalg_flops, "flop");
    metrics.add_count("linalg.gemm_calls", c.linalg_gemm_calls, "count");
    metrics.add_count("sketch.applies", c.sketch_applies, "count");
    metrics.add_count("sketch.flops", c.sketch_flops, "flop");
    metrics.add_count("support.pool_tasks", c.pool_tasks, "count");
    metrics.add_count("workloads.batches", c.batches, "count");
    metrics.add("io.read_s",
                median(collect(untraced,
                               [](const Pass& p) { return p.io_read_s; })),
                "s");
    metrics.add_count("io.read_bytes", untraced.front().io_read_bytes, "B");

    std::array<double, kLayerCount> layer_s{};
    double rank_time = 0.0, pool_worker = 0.0, prefetch = 0.0, linalg_all = 0.0;
    std::vector<double> busy(static_cast<std::size_t>(wl->ranks()), 0.0);
    for (const Pass& p : traced) {
      for (int l = 0; l < kLayerCount; ++l) {
        layer_s[static_cast<std::size_t>(l)] +=
            p.split->layer_s[static_cast<std::size_t>(l)];
      }
      rank_time += p.split->rank_time_s;
      pool_worker += p.split->pool_worker_s;
      prefetch += p.split->prefetch_s;
      linalg_all += p.split->linalg_all_threads_s;
      for (std::size_t r = 0; r < busy.size(); ++r) busy[r] += p.split->rank_busy_s[r];
    }
    const double n = static_cast<double>(traced.size());
    for (int l = 0; l < kLayerCount; ++l) {
      metrics.add(layer_metric(static_cast<Layer>(l)),
                  layer_s[static_cast<std::size_t>(l)] / rank_time, "frac");
    }
    metrics.add("support.pool_worker_s", pool_worker / n, "s");
    metrics.add("workloads.prefetch_s", prefetch / n, "s");
    const double busy_mean =
        std::accumulate(busy.begin(), busy.end(), 0.0) / static_cast<double>(busy.size());
    metrics.add("core.rank_imbalance",
                *std::max_element(busy.begin(), busy.end()) / busy_mean, "ratio");
    metrics.add("core.root_busy_s", busy[0] / n, "s");
    metrics.add("linalg.gflops",
                static_cast<double>(c.linalg_flops) * n / linalg_all * 1e-9,
                "GFLOP/s");
    metrics.add("obs.trace_overhead_frac",
                median(collect(traced, [](const Pass& p) { return p.wall_s; })) /
                        median(wall) -
                    1.0,
                "frac");
  }

  const bool correct = failed == 0 && deterministic && dropped == 0 &&
                       shares_ok && metrics.all_finite();

  // Run manifest: host, environment and everything that shaped the run.
  std::ostringstream m;
  m << "{\"benchmark\": \"bench_e2e\", \"workload\": " << json_string(wl->name())
    << ", \"seed\": " << args.seed << ", \"seconds\": " << fmt(args.seconds)
    << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"smoke\": " << (args.smoke ? "true" : "false")
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"loadavg_start\": " << load_start << ", \"loadavg_end\": " << load_end
    << ", \"cpu_steal_frac\": " << fmt(steal_frac)
    << ", \"env\": {";
  bool comma = false;
  for (const auto& [k, v] : env) {
    m << (comma ? ", " : "") << json_string(k) << ": " << json_string(v);
    comma = true;
  }
  m << "}, \"params\": " << wl->params_json()
    << ", \"setup_reps\": " << setup_s.size()
    << ", \"warmup_passes\": " << warmup.size()
    << ", \"untraced_passes\": " << untraced.size()
    << ", \"traced_passes\": " << traced.size();
  if (!args.trace) {
    m << ", \"solve_tail\": {\"percentile\": " << fmt(tail_percentile)
      << ", \"samples\": " << tail_samples << "}";
  }
  m << ", \"setup_s_reps\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    m << (i ? ", " : "") << fmt(setup_s[i]);
  }
  m << "], \"solve_s_passes\": [";
  for (std::size_t i = 0; i < wall.size(); ++i) {
    m << (i ? ", " : "") << fmt(wall[i]);
  }
  m << "]";
  m << ", \"check\": {\"failed\": " << failed
    << ", \"worst_sigma_rel\": " << fmt(worst_sigma)
    << ", \"worst_subspace_rad\": " << fmt(worst_subspace) << "}"
    << ", \"deterministic\": " << (deterministic ? "true" : "false");
  if (args.trace) {
    m << ", \"trace_check\": {\"ring_capacity\": " << kRingEvents
      << ", \"max_track_events\": " << max_track_events
      << ", \"dropped\": " << dropped
      << ", \"worst_share_error\": " << fmt(worst_share_error) << "}";
  }
  m << "}";
  const std::string manifest = m.str();
  if (!args.manifest_path.empty()) {
    std::ofstream(args.manifest_path) << manifest << "\n";
  }
  if (!correct) {
    std::fprintf(stderr,
                 "bench_e2e: run is not correct: %zu of %zu passes failed "
                 "the check, deterministic=%d, dropped=%llu, share error=%g, "
                 "finite metrics=%d\n",
                 failed, attempted, deterministic ? 1 : 0,
                 static_cast<unsigned long long>(dropped), worst_share_error,
                 metrics.all_finite() ? 1 : 0);
  }
  std::printf("manifest %s\n", manifest.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  try {
    return bench_e2e::run(bench_e2e::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
