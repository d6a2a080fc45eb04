#include "layers.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

namespace bench_e2e {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool is_pool(std::string_view name) { return starts_with(name, "pool."); }

Layer layer_of(std::string_view name) {
  // These spans wrap SVD and eigensolver calls, which have no span of
  // their own, so their self time is factorization work.
  if (name == "apmos.stage12.local_svd" || name == "apmos.stage45.root_svd" ||
      name == "pssvd.root_svd") {
    return Layer::LinalgFactor;
  }
  if (starts_with(name, "linalg.")) return Layer::LinalgSelf;
  if (starts_with(name, "sketch.")) return Layer::SketchSelf;
  if (name == "comm.wait") return Layer::PmpiWait;
  if (starts_with(name, "comm.")) return Layer::PmpiSelf;
  if (name == "pool.parallel_for") return Layer::PoolWait;
  if (name == "stream.ingest") return Layer::IngestWait;
  if (starts_with(name, "tsqr.") || starts_with(name, "apmos.") ||
      starts_with(name, "pssvd.") || starts_with(name, "stream.")) {
    return Layer::CoreSelf;
  }
  return Layer::Untraced;
}

struct Interval {
  std::int64_t start;
  std::int64_t end;
  const std::string* name;
};

/// Non-instant spans of one track clipped to the window, parents before
/// their children.
std::vector<Interval> clipped(const std::vector<const Span*>& track,
                              std::int64_t t0, std::int64_t t1) {
  std::vector<Interval> out;
  for (const Span* s : track) {
    if (s->dur_ns < 0) continue;
    const std::int64_t a = std::max(s->start_ns, t0);
    const std::int64_t b = std::min(s->start_ns + s->dur_ns, t1);
    if (b > a) out.push_back({a, b, &s->name});
  }
  std::sort(out.begin(), out.end(), [](const Interval& x, const Interval& y) {
    if (x.start != y.start) return x.start < y.start;
    return x.end > y.end;
  });
  return out;
}

struct Open {
  Interval span;
  std::int64_t child_ns = 0;
  Layer layer;     // where this span's self time goes
  Layer inherit;   // where a pool.* child's self time goes
  bool in_chunk;   // this span or an ancestor is a pool.chunk
  bool outermost_chunk;  // a pool.chunk with no pool.chunk ancestor
};

/// Walks one track's spans as a nesting stack. `on_close` sees each span
/// with its self time once all its children are known; returns the time
/// covered by outermost spans.
template <typename OnClose>
std::int64_t walk(const std::vector<Interval>& spans, OnClose on_close) {
  std::vector<Open> stack;
  std::int64_t covered = 0;
  const auto pop = [&] {
    const Open o = stack.back();
    stack.pop_back();
    on_close(o, (o.span.end - o.span.start) - o.child_ns);
  };
  for (Interval iv : spans) {
    while (!stack.empty() && stack.back().span.end <= iv.start) pop();
    Layer inherit = Layer::Untraced;
    bool in_chunk = false;
    if (stack.empty()) {
      covered += iv.end - iv.start;
    } else {
      Open& parent = stack.back();
      // One thread's spans nest; clip anything that does not.
      iv.end = std::min(iv.end, parent.span.end);
      parent.child_ns += iv.end - iv.start;
      inherit = parent.inherit;
      in_chunk = parent.in_chunk;
    }
    const std::string_view name = *iv.name;
    Open o{iv, 0, layer_of(name), Layer::Untraced, in_chunk, false};
    if (name == "pool.chunk") {
      o.layer = inherit;
      o.in_chunk = true;
      o.outermost_chunk = !in_chunk;
    }
    o.inherit = is_pool(name) ? inherit : o.layer;
    stack.push_back(o);
  }
  while (!stack.empty()) pop();
  return covered;
}

}  // namespace

const char* layer_metric(Layer layer) {
  switch (layer) {
    case Layer::LinalgSelf: return "linalg.self_frac";
    case Layer::LinalgFactor: return "linalg.factor_frac";
    case Layer::SketchSelf: return "sketch.self_frac";
    case Layer::CoreSelf: return "core.self_frac";
    case Layer::PmpiWait: return "pmpi.wait_frac";
    case Layer::PmpiSelf: return "pmpi.self_frac";
    case Layer::PoolWait: return "support.pool_wait_frac";
    case Layer::IngestWait: return "workloads.ingest_wait_frac";
    case Layer::Untraced: return "untraced_frac";
    case Layer::Count: break;
  }
  return "?";
}

LayerSplit split_layers(const std::vector<Span>& spans, std::int64_t t0_ns,
                        std::int64_t t1_ns, int ranks) {
  LayerSplit out;
  const std::int64_t window = std::max<std::int64_t>(t1_ns - t0_ns, 0);
  constexpr double kSec = 1e-9;

  std::map<std::pair<int, int>, std::vector<const Span*>> tracks;
  for (const Span& s : spans) {
    if (s.dur_ns >= 0 && s.name == "prefetch.ingest") {
      // Prefetch workers share one track id, so their spans are summed
      // rather than nested.
      const std::int64_t a = std::max(s.start_ns, t0_ns);
      const std::int64_t b = std::min(s.start_ns + s.dur_ns, t1_ns);
      if (b > a) out.prefetch_s += static_cast<double>(b - a) * kSec;
      continue;
    }
    tracks[{s.pid, s.tid}].push_back(&s);
  }

  out.rank_busy_s.assign(static_cast<std::size_t>(ranks), 0.0);
  for (int r = 0; r < ranks; ++r) {
    std::array<std::int64_t, kLayerCount> ns{};
    const auto it = tracks.find({r + 1, 0});
    if (it != tracks.end()) {
      const std::int64_t covered = walk(
          clipped(it->second, t0_ns, t1_ns),
          [&](const Open& o, std::int64_t self) {
            ns[static_cast<std::size_t>(o.layer)] += self;
          });
      ns[static_cast<std::size_t>(Layer::Untraced)] += window - covered;
    } else {
      ns[static_cast<std::size_t>(Layer::Untraced)] += window;
    }
    std::int64_t waits = 0;
    for (Layer l : {Layer::PmpiWait, Layer::PoolWait, Layer::IngestWait}) {
      waits += ns[static_cast<std::size_t>(l)];
    }
    out.rank_busy_s[static_cast<std::size_t>(r)] =
        static_cast<double>(window - waits) * kSec;
    for (int l = 0; l < kLayerCount; ++l) {
      out.layer_s[static_cast<std::size_t>(l)] +=
          static_cast<double>(ns[static_cast<std::size_t>(l)]) * kSec;
    }
  }
  out.rank_time_s = static_cast<double>(window) * kSec * ranks;
  out.linalg_all_threads_s =
      out.layer_s[static_cast<std::size_t>(Layer::LinalgSelf)];

  for (const auto& [id, track] : tracks) {
    if (id.first >= 1 && id.first <= ranks && id.second == 0) continue;
    std::int64_t chunk_ns = 0;
    std::int64_t linalg_ns = 0;
    walk(clipped(track, t0_ns, t1_ns), [&](const Open& o, std::int64_t self) {
      if (o.outermost_chunk) chunk_ns += o.span.end - o.span.start;
      if (o.layer == Layer::LinalgSelf) linalg_ns += self;
    });
    out.pool_worker_s += static_cast<double>(chunk_ns) * kSec;
    out.linalg_all_threads_s += static_cast<double>(linalg_ns) * kSec;
  }
  return out;
}

}  // namespace bench_e2e
