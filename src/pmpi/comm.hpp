// pmpi — a small message-passing runtime with MPI semantics.
//
// The paper's library runs on mpi4py; no MPI implementation is available
// in this environment, so pmpi provides the same programming model with
// ranks executed as OS threads inside one process:
//   * explicit point-to-point send/recv with (source, tag) matching and
//     per-channel FIFO ordering — the MPI guarantee algorithms rely on;
//   * the collectives PyParSVD uses (gather, bcast, scatter, allgather,
//     allreduce, reduce, barrier) built on top of point-to-point, one
//     fixed topology each (flat gather, binomial-tree broadcast like
//     production MPI libraries, reduce-then-bcast allreduce);
//   * communication-volume accounting (bytes per rank and total), which
//     feeds the weak-scaling cost model in the Figure 1(c) bench.
//
// Ranks do NOT share algorithm state: all inter-rank data flows through
// byte-copied messages, so every communication an MPI run would perform
// is performed (and counted) here too.  What this cannot reproduce is
// network latency/bandwidth — the scaling bench reports measured time and
// modeled communication volume separately for that reason.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pmpi/fault.hpp"
#include "pmpi/request.hpp"
#include "pmpi/tags.hpp"
#include "pmpi/topology.hpp"
#include "support/error.hpp"

namespace parsvd::pmpi {

/// Reduction operators for reduce/allreduce.
enum class Op { Sum, Max, Min };

// The schedule math every collective follows lives in pmpi/topology.hpp,
// shared with the static verifier (src/verify): the schedule the model
// checker proves deadlock-free is the schedule these methods post. Each
// collective has one topology; only reduce picks between two, by a fixed
// rule over the rank count and payload size (topology::use_tree_reduce).

/// Serialize a matrix into the wire format used by send_matrix (shape
/// header + column-major body). Exposed so degraded-mode callers can
/// build composite payloads (metadata + matrix) for one atomic gather.
std::vector<std::byte> pack_matrix(const Matrix& m);
/// Append the wire form of `m` to `out` — lets composite payloads
/// (header + matrix) be built in ONE buffer that is then moved into
/// Context::post, instead of packing into a temporary and copying.
void pack_matrix_into(const Matrix& m, std::vector<std::byte>& out);
Matrix unpack_matrix(std::span<const std::byte> payload);

class Context;

/// An ordered subset of a Context's world ranks with its own dense rank
/// numbering [0, size()). Minted by Context::group_for — one shared
/// instance per distinct ordered member list, so every member rank that
/// derives the same list gets the same Group (and the same id) with no
/// extra communication. Group ids start at 1 (0 is the implicit world
/// communicator) and key both the group's private wire-tag band
/// (tags::group_scope) and its metric series ("comm.group<id>.messages"
/// / "comm.group<id>.bytes" in the context registry).
class Group {
 public:
  /// Dense group id >= 1, stable for the Context's lifetime.
  int id() const { return id_; }
  int size() const { return static_cast<int>(members_.size()); }
  /// Group rank -> world rank, in group rank order.
  const std::vector<int>& members() const { return members_; }
  int world_rank(int group_rank) const {
    return members_[static_cast<std::size_t>(group_rank)];
  }
  /// World rank -> group rank; -1 for non-members.
  int group_rank_of_world(int world_rank) const {
    return world_to_group_[static_cast<std::size_t>(world_rank)];
  }
  /// Bump the group's metric series for one posted message. Counters are
  /// owned by the context registry; this is the group-scoped view of the
  /// same traffic "comm.messages"/"comm.bytes" count world-wide.
  void note_post(std::size_t bytes) const {
    messages_->add(1);
    bytes_->add(bytes);
  }

 private:
  friend class Context;
  Group() = default;
  int id_ = 0;
  std::vector<int> members_;
  std::vector<int> world_to_group_;
  obs::Counter* messages_ = nullptr;
  obs::Counter* bytes_ = nullptr;
};

/// Shared state of one communicator "job": mailboxes, barrier, counters,
/// reliability envelope and fault-injection hooks.
/// Owned jointly by every Communicator handle of the job.
class Context {
 public:
  explicit Context(int size);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  int size() const { return size_; }

  /// Deliver a message into `dest`'s mailbox. With the reliability layer
  /// on, the payload travels in an envelope (per-channel sequence number
  /// + checksum); the installed FaultPlan may drop/delay/duplicate/
  /// truncate the delivered copy or kill `src` (RankKilledError).
  void post(int src, int dest, int tag, std::vector<std::byte> payload);

  /// Block until a message with exactly (src, tag) is available for
  /// `dest` and return its payload. Matching is FIFO per (src, tag).
  /// The envelope layer discards duplicates, recovers dropped/corrupted
  /// messages from the retransmit log, and converts unrecoverable losses
  /// into typed errors: CommTimeout once the wait timeout (plus bounded
  /// backoff retries) expires, RankDeadError when `src` is dead with no
  /// recoverable message in flight.
  std::vector<std::byte> wait(int dest, int src, int tag);

  /// One point-to-point channel, as named by the multi-channel waits.
  struct Channel {
    int src;
    int tag;
  };

  /// Non-blocking counterpart of wait(): consume and return the next
  /// deliverable (src, tag) message if there is one, nullopt otherwise.
  /// Runs the same envelope recovery as wait() and throws the same
  /// RankDeadError / JobAbortedError once the message can no longer
  /// arrive. Does NOT advance the fault-plan op counter — non-blocking
  /// receives account their operation once, at post time, so polling
  /// frequency cannot perturb a deterministic fault schedule.
  std::optional<std::vector<std::byte>> try_wait(int dest, int src, int tag);

  /// Block until ANY of `channels` has a deliverable message for `dest`;
  /// returns (channel index, payload). Scans channels in order each
  /// round, so an already-queued earlier channel wins ties. Throws
  /// RankDeadError only when every queried source is dead with nothing
  /// recoverable — while one source lives, messages already posted by
  /// dead ones are still consumed. Like try_wait, never accounts an op.
  std::pair<std::size_t, std::vector<std::byte>> wait_any(
      int dest, std::span<const Channel> channels);

  /// Advance `rank`'s operation counter (and evaluate kill faults) as
  /// one communication operation. post/wait/barrier call this
  /// internally; the non-blocking layer calls it when a receive is
  /// POSTED so the per-rank op sequence is deterministic under polling.
  std::uint64_t account_op(int rank);

  /// Debug-build channel discipline for non-blocking receives: at most
  /// one outstanding irecv per (dest, src, tag). A second registration
  /// throws a typed CommError naming the channel; release builds
  /// compile both calls to no-ops.
  void register_irecv(int dest, int src, int tag);
  void unregister_irecv(int dest, int src, int tag);

  /// Mint (or look up) the group with exactly this ordered world-rank
  /// member list. Deterministic per list: the first caller allocates the
  /// next id, every later caller with the same list gets the shared
  /// instance — so all members of one split/subgroup agree on the id
  /// without any extra protocol. Concurrent first mints of DIFFERENT
  /// lists take arrival order; callers that need run-to-run stable ids
  /// either mint in a fixed order (Communicator::split does) or pre-mint
  /// here before ranks start.
  std::shared_ptr<const Group> group_for(std::vector<int> members);

  /// Two-phase dissemination barrier over the mailbox fabric is not
  /// needed in-process; a generation-counted central barrier is exact.
  /// Dead ranks are not waited for; pass the calling rank so fault
  /// injection can account (and possibly kill) the operation.
  void barrier(int rank = -1);

  /// Mark the job as failed and wake every blocked rank: any rank
  /// currently (or subsequently) blocked in wait()/barrier() throws
  /// CommError instead of deadlocking. Called by the run() harness when a
  /// rank function exits with an exception.
  void abort_job();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // --------------------------------------------- fault injection / faults

  /// Install a fault schedule (before ranks start communicating). Arms
  /// the retransmit log; if no wait timeout is configured yet, a default
  /// of 2000 ms is set so injected losses can never hang a rank.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Maximum blocking time of one wait() before recovery/retry kicks in.
  /// Zero (the default without a fault plan) waits forever.
  void set_wait_timeout(std::chrono::milliseconds timeout);

  /// Deadline extensions (with exponential backoff) granted after the
  /// first timeout before CommTimeout is thrown. Default 3.
  void set_max_retries(int retries);

  /// Toggle the checksum/sequence envelope. On by default; the fault
  /// overhead bench toggles it off to measure the zero-fault cost.
  /// Must not change while ranks are communicating.
  void set_reliability(bool enabled) {
    reliability_.store(enabled, std::memory_order_relaxed);
  }
  bool reliability() const {
    return reliability_.load(std::memory_order_relaxed);
  }

  /// Reject any single payload larger than this (typed CommError).
  void set_max_payload_bytes(std::uint64_t bytes) { max_payload_ = bytes; }
  std::uint64_t max_payload_bytes() const { return max_payload_; }

  /// Mark `rank` dead and wake every blocked rank so waits on it turn
  /// into typed errors (or degraded-mode exclusion) instead of hangs.
  void mark_dead(int rank);
  bool is_dead(int rank) const {
    return dead_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }
  int alive_count() const { return size_ - dead_count_.load(std::memory_order_acquire); }
  std::vector<int> dead_ranks() const;

  /// Operations (post/wait/barrier) `rank` has performed so far. The
  /// per-rank sequence is deterministic for a fixed workload, so a probe
  /// run's count is how tests aim kill_rank at a specific later phase.
  std::uint64_t ops(int rank) const {
    return op_counters_[static_cast<std::size_t>(rank)].load(
        std::memory_order_relaxed);
  }

  // ------------------------------------------------------------ statistics

  /// Total payload bytes posted so far (all ranks).
  std::uint64_t total_bytes() const;

  /// Payload bytes posted by one rank.
  std::uint64_t rank_bytes(int rank) const;

  /// Total number of messages posted.
  std::uint64_t total_messages() const;

  /// Messages recovered from the retransmit log (drops + corruptions).
  std::uint64_t retransmits() const { return retransmits_->value(); }

  /// Faults the installed plan actually injected.
  std::uint64_t faults_injected() const { return faults_injected_->value(); }

  /// The per-context metrics registry backing every statistic above —
  /// the single source of truth ("comm.messages", "comm.bytes",
  /// "comm.rank<r>.bytes", "comm.retransmits", "comm.faults_injected",
  /// "comm.timeouts", "comm.timeout_retries", "comm.payload_bytes"
  /// histogram). The accessors above are views into it.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;
  /// One point-to-point channel as the envelope layer sees it: messages
  /// of one sender arriving at this mailbox under one tag.
  using ChannelKey = std::pair<int, int>;  // (src, tag)

  struct PendingMessage {
    int src;
    int tag;
    std::uint64_t seq;       // per-channel sequence number (envelope)
    std::uint64_t checksum;  // checksum of the ORIGINAL payload
    Clock::time_point deliver_after;  // epoch = deliverable immediately
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<PendingMessage> queue;
    // Envelope bookkeeping, all under `mu`: next sequence number to
    // assign per channel (sender side), next expected per channel
    // (receiver side), and the retransmit log holding the original
    // payloads of lossy-faulted messages until their seq is consumed.
    std::map<ChannelKey, std::uint64_t> send_seq;
    std::map<ChannelKey, std::uint64_t> recv_seq;
    std::map<ChannelKey, std::map<std::uint64_t, std::vector<std::byte>>> log;
  };

  /// One pass over dest's queue for the next deliverable (src, tag)
  /// message: drops stale duplicates, skips out-of-order successors,
  /// honours delayed delivery (folding the earliest wake-up into
  /// *next_deliverable), recovers corrupted payloads from the
  /// retransmit log, and falls back to the log for swallowed drops. On
  /// success the message is consumed (sequence advanced, acked log
  /// entries pruned) and its payload moved into *out. Caller holds
  /// box.mu.
  bool scan_channel_locked(Mailbox& box, int dest, int src, int tag,
                           std::vector<std::byte>* out,
                           Clock::time_point* next_deliverable);

  /// Shared engine under wait / wait_any: blocking multi-channel scan
  /// with the lazily-armed watchdog deadline and backoff retries. Never
  /// accounts an op (callers decide).
  std::pair<std::size_t, std::vector<std::byte>> wait_any_impl(
      int dest, std::span<const Channel> channels);

  /// Lazily start the deadline watchdog (bounded waits sleep untimed and
  /// rely on its periodic mailbox wakes to re-check their deadline).
  void ensure_watchdog();
  void watchdog_loop();

  int size_;
  std::atomic<bool> aborted_{false};
  std::vector<std::unique_ptr<Mailbox>> boxes_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Communication statistics live in the per-context metrics registry;
  // the hot-path pointers below are resolved once at construction so
  // post() pays one relaxed atomic add per series, no mutex.
  obs::Registry metrics_;
  obs::Counter* messages_total_ = nullptr;
  obs::Counter* bytes_total_ = nullptr;
  std::vector<obs::Counter*> bytes_by_rank_;
  obs::Histogram* payload_hist_ = nullptr;

  FaultPlan plan_;
  bool plan_active_ = false;
  bool plan_can_kill_ = false;  // cached plan_.can_kill(): skips the
                                // per-operation kill lookup for plans
                                // that only fault messages
  std::atomic<bool> reliability_{true};
  std::chrono::milliseconds wait_timeout_{0};
  int max_retries_ = 3;
  std::uint64_t max_payload_ = std::uint64_t{1} << 33;  // 8 GiB
  std::vector<std::atomic<std::uint64_t>> op_counters_;
  std::vector<std::atomic<bool>> dead_;
  std::atomic<int> dead_count_{0};
  /// Watchdog tick period: the granularity of bounded-wait deadlines.
  /// Coarse on purpose — the timeout is hang protection, not a precise
  /// timer, and the coarse tick keeps armed timers off the message path.
  static constexpr std::chrono::milliseconds kWatchdogTick{20};
  std::thread watchdog_;
  std::atomic<bool> watchdog_started_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<std::uint64_t> watchdog_ticks_{0};
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  obs::Counter* retransmits_ = nullptr;
  obs::Counter* faults_injected_ = nullptr;
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* timeout_retries_ = nullptr;

  // Debug-build registry of outstanding non-blocking receives, keyed
  // (dest, src, tag). Unused (but kept declared, for a single layout
  // across build types) in release builds.
  std::mutex irecv_mu_;
  std::set<std::tuple<int, int, int>> open_irecvs_;

  // Communicator groups, keyed by their ordered member list so every
  // member minting the same subgroup resolves to one shared instance.
  std::mutex groups_mu_;
  std::map<std::vector<int>, std::shared_ptr<const Group>> groups_;
  int next_group_id_ = 1;
};

/// Per-rank handle: the library-facing API (mirrors the MPI calls used in
/// PyParSVD Listings 3 and 4).
///
/// A Communicator is either the world communicator (every Context rank,
/// world rank numbering, raw tags on the wire) or a GROUP communicator
/// produced by split()/subgroup(): ranks are the group's dense
/// [0, size()) numbering, and every post/wait internally translates
/// (rank, tag) to (world rank, tags::group_scope(id, tag)) — so the full
/// API, the collectives, the reliability envelope, fault injection and
/// the Request layer work unchanged on subgroups, and sibling groups can
/// run concurrently on one Context without tag collisions.
class Communicator {
 public:
  Communicator(int rank, std::shared_ptr<Context> ctx);
  /// Group communicator: `rank` is the GROUP-local rank of this handle
  /// inside `group` (pass the result of Group::group_rank_of_world).
  Communicator(int rank, std::shared_ptr<Context> ctx,
               std::shared_ptr<const Group> group);

  int rank() const { return rank_; }
  int size() const { return group_ ? group_->size() : ctx_->size(); }
  bool is_root() const { return rank_ == 0; }
  Context& context() { return *ctx_; }
  const Context& context() const { return *ctx_; }

  /// The group behind this communicator; nullptr for the world
  /// communicator.
  const Group* group() const { return group_.get(); }
  /// This handle's rank in the underlying Context (== rank() on the
  /// world communicator).
  int world_rank() const { return wr(rank_); }

  // ------------------------------------------------- communicator groups

  /// Collective over this communicator (MPI_Comm_split semantics): ranks
  /// passing the same non-negative `color` form one subgroup, ordered by
  /// (key, parent rank); `color < 0` opts out and yields nullopt. One
  /// allgather of (color, key) over the parent is the only
  /// communication; every member then derives the member list locally
  /// and resolves the same shared Group. Groups are minted in ascending
  /// color order, so ids are deterministic run-to-run.
  std::optional<Communicator> split(int color, int key = 0);

  /// Purely local subgroup of this communicator's ranks: every member of
  /// `ranks` must call with an identical list (the MPI_Comm_create
  /// contract); non-members may call and get nullopt. `ranks` order
  /// defines the group's dense numbering. No communication — but
  /// concurrent FIRST mints of different lists get arrival-order ids;
  /// pre-mint via Context::group_for when ids must be run-to-run stable.
  std::optional<Communicator> subgroup(std::span<const int> ranks) const;

  /// Dead ranks as THIS communicator numbers them: group-local ranks on
  /// a group communicator (a sibling group's dead rank is invisible
  /// here — the death-isolation contract), world ranks on the world
  /// communicator.
  std::vector<int> dead_ranks() const;
  bool is_dead(int rank) const { return ctx_->is_dead(wr(rank)); }
  int alive_count() const;

  // ------------------------------------------------------- point-to-point

  /// Blocking-buffered send of trivially copyable elements. Payloads
  /// beyond the context's size cap raise a typed CommError before any
  /// buffering happens.
  template <typename T>
  void send(std::span<const T> data, int dest, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(dest);
    check_tag(tag);
    check_payload(data.size_bytes());
    std::vector<std::byte> payload(data.size_bytes());
    if (!payload.empty()) {
      std::memcpy(payload.data(), data.data(), payload.size());
    }
    post_scoped(dest, tag, std::move(payload));
  }

  /// Blocking receive; returns the full payload reinterpreted as T.
  template <typename T>
  std::vector<T> recv(int src, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(src);
    check_tag(tag);
    const std::vector<std::byte> payload = wait_scoped(src, tag);
    PARSVD_REQUIRE(payload.size() % sizeof(T) == 0,
                   "received payload not a whole number of elements");
    std::vector<T> out(payload.size() / sizeof(T));
    if (!payload.empty()) {
      std::memcpy(out.data(), payload.data(), payload.size());
    }
    return out;
  }

  /// Matrix-valued send/recv (shape travels with the data).
  void send_matrix(const Matrix& m, int dest, int tag = 0);
  Matrix recv_matrix(int src, int tag = 0);

  // ------------------------------------------------- non-blocking layer
  // isend posts immediately (buffered) and returns an already-complete
  // request; irecv registers a channel and completes via test()/wait()/
  // wait_any(). See request.hpp for the full lifecycle contract.

  template <typename T>
  Request isend(std::span<const T> data, int dest, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(dest);
    check_tag(tag);
    check_payload(data.size_bytes());
    std::vector<std::byte> payload(data.size_bytes());
    if (!payload.empty()) {
      std::memcpy(payload.data(), data.data(), payload.size());
    }
    post_scoped(dest, tag, std::move(payload));
    return Request(ctx_, Request::Kind::Send, wr(rank_), wr(dest),
                   wire_tag(tag), /*done=*/true);
  }

  Request isend_matrix(const Matrix& m, int dest, int tag = 0);

  /// Post a non-blocking receive on (src, tag). The fault-plan op is
  /// accounted here, once; debug builds reject a second outstanding
  /// irecv on the same channel.
  Request irecv(int src, int tag = 0);

  // ----------------------------------------------------------- collectives
  // Every collective must be called by all ranks of the communicator, in
  // the same order — the MPI contract.

  /// World communicator: the context's central generation barrier.
  /// Group communicator: a message-based flat gather + release on the
  /// group's scoped tags::kBarrier channel, so a member death surfaces
  /// here (RankDeadError) and never stalls a sibling group's barrier.
  void barrier();

  /// Binomial-tree broadcast; `data` is input at root, output elsewhere.
  template <typename T>
  void bcast(std::vector<T>& data, int root = 0);

  void bcast_matrix(Matrix& m, int root = 0);
  void bcast_double(double& value, int root = 0);
  void bcast_index(Index& value, int root = 0);

  /// Gather per-rank matrices at root, indexed by source rank. Non-root
  /// ranks receive an empty vector.
  std::vector<Matrix> gather_matrices(const Matrix& local, int root = 0);

  /// Gather variable-length element buffers at root (concatenated in rank
  /// order); the per-rank lengths are returned via `counts` at root.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> local, int root,
                         std::vector<std::size_t>* counts = nullptr);

  /// Allgather of one scalar per rank → vector indexed by rank.
  std::vector<double> allgather_double(double value);
  std::vector<Index> allgather_index(Index value);

  /// Scatter row-blocks of a matrix held at root: rank i receives
  /// rows [offsets[i], offsets[i] + rows_per_rank[i]). Only root reads
  /// `full`.
  Matrix scatter_rows(const Matrix& full, std::span<const Index> rows_per_rank,
                      int root = 0);

  /// Elementwise reduction to root; `data` must be the same length on
  /// every rank. Non-root contents are left untouched. Flat root loop,
  /// or the binomial tree when topology::use_tree_reduce holds.
  void reduce(std::span<double> data, Op op, int root = 0);

  /// Reduction visible on every rank: reduce(0) followed by bcast(0).
  void allreduce(std::span<double> data, Op op);
  double allreduce_scalar(double value, Op op);

  // ------------------------------------- fault-tolerant (degraded) mode
  // Flat-topology collectives that exclude ranks marked dead and absorb
  // deaths racing with the collective. Contract: every SURVIVING rank
  // calls them in the same order; the root must survive (root death is
  // unrecoverable and surfaces as RankDeadError). Messages posted by a
  // rank before its death are still consumed, so a contribution is only
  // lost when the rank died before sending it.

  /// Gather one raw payload per rank at root; result[i] is rank i's
  /// payload, nullopt when rank i is dead and its payload unrecoverable.
  /// Non-root ranks receive an empty vector.
  std::vector<std::optional<std::vector<std::byte>>> gather_bytes_ft(
      std::span<const std::byte> local, int root = 0);
  /// Move overload: callers that build the wire buffer themselves hand
  /// it over without another copy (the span form copies into this one).
  std::vector<std::optional<std::vector<std::byte>>> gather_bytes_ft(
      std::vector<std::byte>&& local, int root = 0);

  /// As gather_matrices, but dead ranks yield nullopt at root.
  std::vector<std::optional<Matrix>> gather_matrices_ft(const Matrix& local,
                                                        int root = 0);

  /// Root fans `payload` directly out to every living rank.
  void bcast_bytes_ft(std::vector<std::byte>& payload, int root = 0);
  void bcast_matrix_ft(Matrix& m, int root = 0);
  void bcast_doubles_ft(std::vector<double>& values, int root = 0);

  /// Sum-allreduce over the survivors: dead ranks' contributions are
  /// simply absent from the sum.
  void allreduce_sum_ft(std::span<double> data, int root = 0);

 private:
  void check_peer(int peer) const {
    PARSVD_REQUIRE(peer >= 0 && peer < size(), "peer rank out of range");
  }
  void check_tag(int tag) const {
    PARSVD_REQUIRE(tag >= 0, "user tags must be non-negative");
    PARSVD_REQUIRE(!group_ || tag < tags::kGroupUserLimit,
                   "group communicator user tags must be below "
                   "tags::kGroupUserLimit (the scoped band is finite)");
  }
  /// Reject degenerate payload sizes with a typed CommError before any
  /// buffer is allocated (oversized sends were previously unguarded).
  void check_payload(std::size_t bytes) const;

  // Collective tags live in the tags:: registry (tags.hpp); they are
  // negative, which the public API rejects for user traffic.

  // ------------------------------------- group rank/tag translation
  // EVERY context access of this communicator funnels through these:
  // on a group communicator they translate local ranks to world ranks
  // and relocate local tags into the group's scoped band, and
  // post_scoped additionally bumps the group's metric series. On the
  // world communicator all three are identities.

  int wr(int rank) const { return group_ ? group_->world_rank(rank) : rank; }
  int wire_tag(int tag) const {
    return group_ ? tags::group_scope(group_->id(), tag) : tag;
  }
  void post_scoped(int dest, int tag, std::vector<std::byte> payload);
  std::vector<std::byte> wait_scoped(int src, int tag);

  /// Gather engine under gatherv / gather_matrices: the flat root loop.
  /// Returns, at root, one payload per rank (indexed by source); empty
  /// elsewhere.
  std::vector<std::vector<std::byte>> gather_bytes_impl(
      std::vector<std::byte> local, int root);

  void reduce_tree(std::span<double> data, Op op, int root);

  // Group-local rank on a group communicator, world rank otherwise.
  int rank_;
  std::shared_ptr<Context> ctx_;
  std::shared_ptr<const Group> group_;  // null on the world communicator
};

template <typename T>
void Communicator::bcast(std::vector<T>& data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  const int p = size();
  if (p == 1) return;

  // Classic binomial tree (shared schedule math in pmpi/topology.hpp):
  // receive from the parent — vrank with its lowest set bit cleared —
  // then fan out to the children in descending mask order, so big
  // subtrees get the payload first and their forwarding overlaps the
  // small sends. Ranks are rotated so the tree is rooted at `root`.
  PARSVD_TRACE_SCOPE("comm.bcast.tree");
  const int vrank = (rank_ - root + p) % p;
  if (vrank != 0) {
    const int parent = (topology::binomial_parent(vrank) + root) % p;
    const std::vector<std::byte> payload = wait_scoped(parent, tags::kBcast);
    data.resize(payload.size() / sizeof(T));
    if (!payload.empty()) {
      std::memcpy(data.data(), payload.data(), payload.size());
    }
  }
  for (const int child_v :
       topology::binomial_children(vrank, p, /*ascending=*/false)) {
    const int child = (child_v + root) % p;
    std::vector<std::byte> payload(data.size() * sizeof(T));
    if (!payload.empty()) {
      std::memcpy(payload.data(), data.data(), payload.size());
    }
    post_scoped(child, tags::kBcast, std::move(payload));
  }
}

template <typename T>
std::vector<T> Communicator::gatherv(std::span<const T> local, int root,
                                     std::vector<std::size_t>* counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  std::vector<std::byte> payload(local.size_bytes());
  if (!local.empty()) {
    std::memcpy(payload.data(), local.data(), local.size_bytes());
  }
  std::vector<std::vector<std::byte>> parts =
      gather_bytes_impl(std::move(payload), root);
  if (rank_ != root) return {};
  if (counts) counts->assign(static_cast<std::size_t>(size()), 0);
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<T> out(total / sizeof(T));
  std::byte* cursor = reinterpret_cast<std::byte*>(out.data());
  for (int src = 0; src < size(); ++src) {
    const auto& part = parts[static_cast<std::size_t>(src)];
    if (counts) (*counts)[static_cast<std::size_t>(src)] = part.size() / sizeof(T);
    if (part.empty()) continue;
    std::memcpy(cursor, part.data(), part.size());
    cursor += part.size();
  }
  return out;
}

/// Launch `size` ranks (threads), each running fn(comm). Joins all ranks;
/// the first rank exception (by rank order) is rethrown in the caller.
/// RankKilledError (an injected fault-plan death) is NOT rethrown: the
/// dead rank is recorded in Context::dead_ranks() and the survivors'
/// outcome decides the job's fate — degraded completion returns normally,
/// a stuck survivor surfaces as RankDeadError/CommTimeout.
void run(int size, const std::function<void(Communicator&)>& fn);

/// As `run`, but also returns the context for post-mortem statistics
/// (communication volume, message counts, retransmits, dead ranks).
std::shared_ptr<Context> run_with_stats(
    int size, const std::function<void(Communicator&)>& fn);

/// Run ranks on a caller-configured context (fault plan, timeouts,
/// reliability toggle). The context must be freshly constructed with the
/// desired size. Returns `ctx` for post-mortem inspection.
std::shared_ptr<Context> run_on(std::shared_ptr<Context> ctx,
                                const std::function<void(Communicator&)>& fn);

}  // namespace parsvd::pmpi
