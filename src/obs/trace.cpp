#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "support/env.hpp"

namespace parsvd::obs {
namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0 || std::strcmp(v, "yes") == 0;
}

std::size_t default_ring_capacity() {
  return static_cast<std::size_t>(env::get_count(
      "PARSVD_TRACE_BUFFER", 16384, trace::kMaxEnvRingCapacity));
}

std::atomic<std::size_t>& ring_capacity_slot() {
  static std::atomic<std::size_t> cap{default_ring_capacity()};
  return cap;
}

struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<TraceRing>> rings;
};

RingRegistry& registry() {
  static RingRegistry* instance = new RingRegistry;  // leaked: threads may
  return *instance;                                  // outlive static dtors
}

struct ThreadState {
  int rank = -1;
  int tid = -1;  // < 0: not yet assigned; fallback allocated lazily
  const char* label = nullptr;
  std::shared_ptr<TraceRing> ring;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

TraceRing& thread_ring() {
  ThreadState& state = thread_state();
  if (state.ring == nullptr) {
    auto ring =
        std::make_shared<TraceRing>(ring_capacity_slot().load(
            std::memory_order_relaxed));
    ring->pid = state.rank >= 0 ? state.rank + 1 : 0;
    if (state.tid < 0) {
      // Unidentified thread: give it a unique fallback track well above
      // the explicitly assigned ones.
      static std::atomic<int> next_anon{1000};
      state.tid = next_anon.fetch_add(1, std::memory_order_relaxed);
      if (state.label == nullptr) state.label = "thread";
    }
    ring->tid = state.tid;
    ring->label = state.label != nullptr ? state.label : "thread";
    {
      std::lock_guard<std::mutex> lock(registry().mu);
      registry().rings.push_back(ring);
    }
    state.ring = std::move(ring);
  }
  return *state.ring;
}

void flush_to_env_path();

std::atomic<int>& armed_state() {
  static std::atomic<int> state{-1};
  return state;
}

int armed_init() {
  const int on = env_flag("PARSVD_TRACE") ? 1 : 0;
  if (on == 1 && std::getenv("PARSVD_TRACE_OUT") != nullptr) {
    std::atexit(flush_to_env_path);
  }
  armed_state().store(on, std::memory_order_relaxed);
  return on;
}

void flush_to_env_path() {
  if (const char* path = std::getenv("PARSVD_TRACE_OUT")) {
    trace::flush_json_to(path);
  }
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity)
    : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 2))) {}

void TraceRing::push(const TraceEvent& e) {
  const std::uint64_t idx = count_.load(std::memory_order_relaxed);
  slots_[static_cast<std::size_t>(idx) & (slots_.size() - 1)] = e;
  count_.store(idx + 1, std::memory_order_release);
}

std::uint64_t TraceRing::dropped() const {
  const std::uint64_t n = count_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  return n > cap ? n - cap : 0;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  const std::uint64_t n = count_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t keep = std::min(n, cap);
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(keep));
  for (std::uint64_t i = n - keep; i < n; ++i) {
    out.push_back(slots_[static_cast<std::size_t>(i) & (slots_.size() - 1)]);
  }
  return out;
}

namespace trace {

bool armed() {
  const int v = armed_state().load(std::memory_order_relaxed);
  if (v >= 0) return v == 1;
  return armed_init() == 1;
}

void arm(bool on) {
  armed();  // force env init first so arm() wins over PARSVD_TRACE
  armed_state().store(on ? 1 : 0, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  ring_capacity_slot().store(std::max<std::size_t>(events, 2),
                             std::memory_order_relaxed);
}

void instant(const char* name) {
  thread_ring().push({name, clock().now_ns(), -1});
}

std::vector<FlushedEvent> snapshot() {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    std::lock_guard<std::mutex> lock(registry().mu);
    rings = registry().rings;
  }
  std::vector<FlushedEvent> out;
  for (const auto& ring : rings) {
    for (const TraceEvent& e : ring->snapshot()) {
      out.push_back({ring->pid, ring->tid, e});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlushedEvent& a, const FlushedEvent& b) {
              if (a.pid != b.pid) return a.pid < b.pid;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.event.start_ns != b.event.start_ns) {
                return a.event.start_ns < b.event.start_ns;
              }
              // Longer spans first so a parent precedes its children.
              if (a.event.dur_ns != b.event.dur_ns) {
                return a.event.dur_ns > b.event.dur_ns;
              }
              return std::strcmp(a.event.name, b.event.name) < 0;
            });
  return out;
}

std::uint64_t dropped() {
  std::lock_guard<std::mutex> lock(registry().mu);
  std::uint64_t total = 0;
  for (const auto& ring : registry().rings) total += ring->dropped();
  return total;
}

void reset() {
  std::lock_guard<std::mutex> lock(registry().mu);
  for (const auto& ring : registry().rings) ring->clear();
}

namespace {

void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  const std::int64_t us = ns / 1000;
  const std::int64_t frac = ns % 1000;
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(us),
                static_cast<long long>(frac < 0 ? -frac : frac));
  out += buf;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string flush_json() {
  const std::vector<FlushedEvent> events = snapshot();

  std::int64_t t0 = 0;
  bool have_t0 = false;
  for (const FlushedEvent& fe : events) {
    if (!have_t0 || fe.event.start_ns < t0) {
      t0 = fe.event.start_ns;
      have_t0 = true;
    }
  }

  // Track metadata, in (pid, tid) order to match the event stream.
  struct Track {
    int pid;
    int tid;
    std::string label;
  };
  std::vector<Track> tracks;
  {
    std::lock_guard<std::mutex> lock(registry().mu);
    for (const auto& ring : registry().rings) {
      tracks.push_back({ring->pid, ring->tid, ring->label});
    }
  }
  std::sort(tracks.begin(), tracks.end(), [](const Track& a, const Track& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.label < b.label;
  });
  tracks.erase(std::unique(tracks.begin(), tracks.end(),
                           [](const Track& a, const Track& b) {
                             return a.pid == b.pid && a.tid == b.tid;
                           }),
               tracks.end());

  std::string json = "{\"traceEvents\":[\n";
  char buf[128];
  bool first = true;
  const auto comma = [&] {
    if (!first) json += ",\n";
    first = false;
  };

  int last_pid = -1;
  for (const Track& t : tracks) {
    if (t.pid != last_pid) {
      last_pid = t.pid;
      comma();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                    "\"tid\":0,\"args\":{\"name\":",
                    t.pid);
      json += buf;
      append_json_string(json, t.pid == 0
                                   ? std::string("shared")
                                   : "rank " + std::to_string(t.pid - 1));
      json += "}}";
    }
    comma();
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"name\":",
                  t.pid, t.tid);
    json += buf;
    append_json_string(json, t.label);
    json += "}}";
  }

  for (const FlushedEvent& fe : events) {
    comma();
    const bool is_instant = fe.event.dur_ns < 0;
    std::snprintf(buf, sizeof(buf), "{\"ph\":\"%s\",\"name\":",
                  is_instant ? "i" : "X");
    json += buf;
    append_json_string(json, fe.event.name);
    std::snprintf(buf, sizeof(buf), ",\"pid\":%d,\"tid\":%d,\"ts\":", fe.pid,
                  fe.tid);
    json += buf;
    append_us(json, fe.event.start_ns - t0);
    if (is_instant) {
      json += ",\"s\":\"t\"";
    } else {
      json += ",\"dur\":";
      append_us(json, fe.event.dur_ns);
    }
    json += "}";
  }

  json += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"wall_anchor_ns\":\"";
  std::snprintf(buf, sizeof(buf), "%lld",
                static_cast<long long>(wall_anchor_ns()));
  json += buf;
  json += "\"}}\n";
  return json;
}

bool flush_json_to(const std::string& path) {
  const std::string json = flush_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

}  // namespace trace

void set_thread_identity(int rank, int tid, const char* label) {
  ThreadState& state = thread_state();
  state.rank = rank;
  state.tid = tid;
  state.label = label;
  if (state.ring != nullptr) {
    state.ring->pid = rank >= 0 ? rank + 1 : 0;
    state.ring->tid = tid;
    state.ring->label = label != nullptr ? label : "thread";
  }
}

int current_rank() { return thread_state().rank; }

TraceScope::~TraceScope() {
  if (start_ns_ == kDisarmed) return;
  const std::int64_t end_ns = clock().now_ns();
  thread_ring().push({name_, start_ns_, end_ns - start_ns_});
}

}  // namespace parsvd::obs
