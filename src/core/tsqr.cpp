#include "core/tsqr.hpp"

#include <algorithm>
#include <optional>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "obs/trace.hpp"
#include "pmpi/request.hpp"
#include "pmpi/tags.hpp"
#include "pmpi/topology.hpp"
#include "support/log.hpp"

namespace parsvd {
namespace {

// Wire tags come from the pmpi registry: the tree variant owns the
// kTsqrUpBase/kTsqrDownBase bands (one tag per level); the direct
// variant reuses the down-sweep band for its Q-slice scatter.
using pmpi::tags::tsqr_down;
using pmpi::tags::tsqr_up;

FactoredQr factor_local(Matrix a_local) {
  PARSVD_TRACE_SCOPE("tsqr.factor_panel");
  return FactoredQr(std::move(a_local));
}

// p == 1: the local factor is the whole factorization.
TsqrResult single_rank(FactoredQr local) {
  Matrix t = Matrix::identity(local.rank_bound());
  Matrix r = local.r();
  return {std::move(local), std::move(t), std::move(r), {}};
}

TsqrResult tsqr_direct(pmpi::Communicator& comm, Matrix a_local) {
  PARSVD_TRACE_SCOPE("tsqr.direct");
  const int p = comm.size();

  // Stage 1: local thin QR with the deterministic sign convention.
  FactoredQr local = factor_local(std::move(a_local));
  if (p == 1) return single_rank(std::move(local));

  // Stage 2: gather R factors at root and factor the stack.
  std::vector<Matrix> r_blocks = comm.gather_matrices(local.r(), 0);

  Matrix r_final;
  if (comm.is_root()) {
    const Matrix stacked = vcat(r_blocks);
    QrResult root = qr_thin(stacked);
    r_final = std::move(root.r);

    // Stage 3: scatter row-slices of the stack's Q in rank order.
    Index offset = 0;
    Matrix my_slice;
    for (int dst = 0; dst < p; ++dst) {
      const Index nrows = r_blocks[static_cast<std::size_t>(dst)].rows();
      Matrix slice = root.q.block(offset, 0, nrows, root.q.cols());
      offset += nrows;
      if (dst == 0) {
        my_slice = std::move(slice);
      } else {
        comm.send_matrix(slice, dst, tsqr_down(0));
      }
    }
    comm.bcast_matrix(r_final, 0);
    return {std::move(local), std::move(my_slice), std::move(r_final), {}};
  }

  Matrix my_slice = comm.recv_matrix(0, tsqr_down(0));
  comm.bcast_matrix(r_final, 0);
  return {std::move(local), std::move(my_slice), std::move(r_final), {}};
}

// Fault-tolerant direct TSQR: dead ranks' R factors are excluded from
// the stack and the factorization completes on the survivors' rows.
TsqrResult tsqr_direct_ft(pmpi::Communicator& comm, Matrix a_local) {
  PARSVD_TRACE_SCOPE("tsqr.direct_ft");
  const int p = comm.size();

  FactoredQr local = factor_local(std::move(a_local));
  if (p == 1) return single_rank(std::move(local));

  std::vector<std::optional<Matrix>> r_blocks =
      comm.gather_matrices_ft(local.r(), 0);

  Matrix r_final;
  std::vector<double> excluded;  // rides bcast_doubles_ft as doubles
  Matrix my_slice;
  if (comm.is_root()) {
    std::vector<Matrix> surviving;
    surviving.reserve(r_blocks.size());
    for (int src = 0; src < p; ++src) {
      const auto& block = r_blocks[static_cast<std::size_t>(src)];
      if (block) {
        surviving.push_back(*block);
      } else {
        excluded.push_back(static_cast<double>(src));
      }
    }
    QrResult root = qr_thin(vcat(surviving));
    r_final = std::move(root.r);

    // Scatter row-slices of the stack's Q to the surviving ranks. A
    // rank dying after its gather contribution just leaves the posted
    // slice unconsumed in its mailbox.
    Index offset = 0;
    for (int dst = 0; dst < p; ++dst) {
      const auto& block = r_blocks[static_cast<std::size_t>(dst)];
      if (!block) continue;
      const Index nrows = block->rows();
      Matrix slice = root.q.block(offset, 0, nrows, root.q.cols());
      offset += nrows;
      if (dst == 0) {
        my_slice = std::move(slice);
      } else {
        comm.send_matrix(slice, dst, tsqr_down(0));
      }
    }
  } else {
    // Root-must-survive contract: rank 0 owns the stacked factorization
    // and always sends the slice to a rank it saw deliver its R block.
    // parsvd-lint: allow-ft-wait
    my_slice = comm.recv_matrix(0, tsqr_down(0));
  }
  comm.bcast_matrix_ft(r_final, 0);
  comm.bcast_doubles_ft(excluded, 0);

  TsqrResult out{std::move(local), std::move(my_slice), std::move(r_final), {}};
  out.excluded_ranks.reserve(excluded.size());
  for (double r : excluded) out.excluded_ranks.push_back(static_cast<int>(r));
  return out;
}

TsqrResult tsqr_tree(pmpi::Communicator& comm, Matrix a_local) {
  PARSVD_TRACE_SCOPE("tsqr.tree");
  const int p = comm.size();
  const int rank = comm.rank();

  if (p == 1) return single_rank(FactoredQr(std::move(a_local)));

  // A rank's whole exchange schedule is a pure function of (rank, p) —
  // topology::tsqr_plan, shared with the static verifier: it is
  // "active" at level l while rank % 2^(l+1) == 0, receiving from
  // partner rank + 2^l, and ships its R upward at the level of its
  // lowest set bit. That makes every receive postable BEFORE the local
  // panel factorization, so partners' R factors (and eventually the
  // parent's down-sweep transform) arrive while this rank is busy in
  // its local QR — the up-sweep pipelining this variant exists for.
  const pmpi::topology::TsqrPlan plan = pmpi::topology::tsqr_plan(rank, p);

  // parsvd-pipelined begin (pre-posted schedule overlaps the local QR; a
  // blocking receive here would serialize the up-sweep again)
  std::vector<pmpi::Request> up_reqs;
  up_reqs.reserve(plan.recvs.size());
  for (const auto& step : plan.recvs) {
    up_reqs.push_back(comm.irecv(step.partner, tsqr_up(step.level)));
  }
  pmpi::Request t_req;
  if (rank != 0) {
    // The down-sweep transform from the parent is on a statically known
    // channel too; posting it now costs nothing and completes the
    // rank's whole receive schedule before any compute.
    t_req = comm.irecv(plan.parent, tsqr_down(plan.sent_level));
  }

  FactoredQr local = factor_local(std::move(a_local));
  // parsvd-pipelined end

  // Upward sweep: pairwise R combination, consuming the pre-posted
  // receives in level order.
  struct LevelRecord {
    Index rows_mine;     // rows contributed by our subtree's R
    Index rows_partner;  // rows contributed by the partner's R
    Matrix q_comb;       // (rows_mine + rows_partner) x k' combined Q
    int partner;
    int level;           // tree level (levels with no in-range partner skip)
  };
  std::vector<LevelRecord> records;
  records.reserve(plan.recvs.size());
  Matrix r_mine = local.r();
  {
    PARSVD_TRACE_SCOPE("tsqr.up_sweep");
    for (std::size_t i = 0; i < plan.recvs.size(); ++i) {
      up_reqs[i].wait();
      Matrix r_partner = up_reqs[i].take_matrix();
      const Index rows_mine = r_mine.rows();
      const Index rows_partner = r_partner.rows();
      QrResult combined = qr_thin(vcat(r_mine, r_partner));
      records.push_back(LevelRecord{rows_mine, rows_partner,
                                    std::move(combined.q),
                                    plan.recvs[i].partner,
                                    plan.recvs[i].level});
      r_mine = std::move(combined.r);
    }
    if (plan.sent_level >= 0) {
      comm.send_matrix(r_mine, plan.parent, tsqr_up(plan.sent_level));
    }
  }

  // Downward sweep: unwind accumulated transforms. The final R lives at
  // rank 0; each rank's transform T satisfies Q_slice = Q_local · T.
  Matrix r_final;
  Matrix t;
  {
    PARSVD_TRACE_SCOPE("tsqr.down_sweep");
    if (rank == 0) {
      r_final = r_mine;
      t = Matrix::identity(r_mine.rows());
    } else {
      // Our transform arrives from the partner we sent our R to.
      t_req.wait();
      t = t_req.take_matrix();
    }
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      const Matrix q_top =
          it->q_comb.block(0, 0, it->rows_mine, it->q_comb.cols());
      const Matrix q_bot = it->q_comb.block(it->rows_mine, 0, it->rows_partner,
                                            it->q_comb.cols());
      comm.send_matrix(matmul(q_bot, t), it->partner, tsqr_down(it->level));
      t = matmul(q_top, t);
    }
    comm.bcast_matrix(r_final, 0);
  }
  return {std::move(local), std::move(t), std::move(r_final), {}};
}

}  // namespace

Matrix TsqrResult::q_times(const Matrix& s) const {
  return local.q_times(matmul(transform, s));
}

Matrix TsqrResult::q_local() const { return local.q_times(transform); }

TsqrResult tsqr(pmpi::Communicator& comm, Matrix a_local,
                TsqrVariant variant, bool fault_tolerant) {
  PARSVD_REQUIRE(!a_local.empty(), "tsqr of an empty local block");
  if (fault_tolerant) {
    if (variant == TsqrVariant::Tree) {
      log::debug("tsqr: Tree variant has no exclusion path; using Direct "
                 "for the fault-tolerant call");
    }
    return tsqr_direct_ft(comm, std::move(a_local));
  }
  switch (variant) {
    case TsqrVariant::Direct:
      return tsqr_direct(comm, std::move(a_local));
    case TsqrVariant::Tree:
      return tsqr_tree(comm, std::move(a_local));
  }
  throw ConfigError("unknown TSQR variant");
}

}  // namespace parsvd
