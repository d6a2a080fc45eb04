#include "core/apmos.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "obs/trace.hpp"
#include "pmpi/request.hpp"
#include "pmpi/tags.hpp"

namespace parsvd {

std::pair<Matrix, Vector> generate_right_vectors(const Matrix& a, Index r1,
                                                 SvdMethod method,
                                                 EighMethod eigh_method) {
  PARSVD_REQUIRE(!a.empty(), "right vectors of an empty matrix");
  PARSVD_REQUIRE(r1 > 0, "r1 must be positive");
  SvdOptions opts;
  opts.method = method;
  opts.eigh_method = eigh_method;
  opts.rank = std::min(r1, std::min(a.rows(), a.cols()));
  // Only V and Σ are read, so the method of snapshots forms no U.
  SvdResult f = (method == SvdMethod::MethodOfSnapshots)
                    ? svd_method_of_snapshots_right(a, opts)
                    : svd(a, opts);
  return {std::move(f.v), std::move(f.s)};
}

ApmosResult apmos_svd(pmpi::Communicator& comm, const Matrix& a_local,
                      const ApmosOptions& opts, Rng* rng) {
  opts.validate();
  PARSVD_REQUIRE(!a_local.empty(), "apmos of an empty local block");
  PARSVD_TRACE_SCOPE("apmos.svd");

  // The Stage-3 receive schedule is static — root takes one W block
  // from every other rank — so root posts the whole gather BEFORE its
  // own Stage-1/2 factorization: the other ranks' blocks land while
  // root is busy in its local SVD.
  // parsvd-pipelined begin (Stage-3 irecvs overlap the Stage-1/2 local
  // factorization; a blocking receive here would serialize the gather)
  std::vector<pmpi::Request> w_reqs;
  if (!opts.fault_tolerant && comm.is_root() && comm.size() > 1) {
    w_reqs.reserve(static_cast<std::size_t>(comm.size() - 1));
    for (int src = 1; src < comm.size(); ++src) {
      w_reqs.push_back(comm.irecv(src, pmpi::tags::apmos_w()));
    }
  }

  // Stages 1-2: local right vectors scaled by singular values.
  Matrix wlocal;  // n x k1
  {
    PARSVD_TRACE_SCOPE("apmos.stage12.local_svd");
    auto [vlocal, slocal] =
        generate_right_vectors(a_local, opts.r1, opts.method, opts.eigh_method);
    wlocal = std::move(vlocal);
    for (Index j = 0; j < wlocal.cols(); ++j) {
      scal(slocal[j], wlocal.col_span(j));
    }
  }
  // parsvd-pipelined end

  // Root SVD of the assembled W with truncation to r2 (stages 4-5).
  const auto root_svd = [&](const Matrix& w) {
    PARSVD_TRACE_SCOPE("apmos.stage45.root_svd");
    SvdResult f;
    if (opts.low_rank) {
      RandomizedOptions ropts = opts.randomized;
      ropts.rank = std::min<Index>(opts.r2, std::min(w.rows(), w.cols()));
      if (rng != nullptr) {
        f = randomized_svd(w, ropts, *rng);
      } else {
        f = randomized_svd(w, ropts);
      }
    } else {
      SvdOptions sopts;
      sopts.method = opts.method;
      sopts.eigh_method = opts.eigh_method;
      sopts.rank = std::min<Index>(opts.r2, std::min(w.rows(), w.cols()));
      f = svd(w, sopts);
    }
    // Deterministic mode orientation so distributed results are
    // comparable across rank counts and against serial references.
    fix_svd_signs(f.u, f.v);
    return f;
  };

  Matrix x;
  Vector lambda;
  FaultReport report;
  if (opts.fault_tolerant) {
    // Stage 3, degraded-capable: one atomic payload per rank —
    // [rows, ‖A^i‖_F²] header + packed W^i — so a contribution that
    // arrives always carries its own metadata.
    const double frob = a_local.norm_fro();
    const double meta[2] = {static_cast<double>(a_local.rows()), frob * frob};
    std::vector<std::byte> payload(sizeof(meta));
    std::memcpy(payload.data(), meta, sizeof(meta));
    pmpi::pack_matrix_into(wlocal, payload);
    const auto raw = comm.gather_bytes_ft(std::move(payload), 0);

    if (comm.is_root()) {
      std::vector<Matrix> blocks;
      blocks.reserve(raw.size());
      for (int src = 0; src < comm.size(); ++src) {
        const auto& c = raw[static_cast<std::size_t>(src)];
        if (!c) {
          report.dead_ranks.push_back(src);
          continue;
        }
        PARSVD_REQUIRE(c->size() > sizeof(meta), "apmos: short ft payload");
        double hdr[2];
        std::memcpy(hdr, c->data(), sizeof(hdr));
        report.surviving_rows += static_cast<Index>(hdr[0]);
        blocks.push_back(pmpi::unpack_matrix(
            std::span<const std::byte>(*c).subspan(sizeof(meta))));
      }
      report.degraded = !report.dead_ranks.empty();
      // A rank that died before its gather post never reported its
      // extent or energy, so the lost mass is unknowable here and the
      // Weyl-type bound degrades to the vacuous worst case.
      report.extent_known = !report.degraded;
      report.coverage = report.degraded ? 0.0 : 1.0;
      report.accuracy_bound = report.degraded ? 1.0 : 0.0;

      SvdResult f = root_svd(hcat(blocks));
      x = std::move(f.u);
      lambda = std::move(f.s);
    }
    comm.bcast_matrix_ft(x, 0);
    {
      std::vector<double> lam(lambda.begin(), lambda.end());
      comm.bcast_doubles_ft(lam, 0);
      lambda = Vector(static_cast<Index>(lam.size()));
      std::copy(lam.begin(), lam.end(), lambda.begin());
    }
    std::vector<double> flat = report.to_doubles();
    comm.bcast_doubles_ft(flat, 0);
    report = FaultReport::from_doubles(flat);
  } else {
    // Stage 3: gather W at rank 0 (column-wise concatenation). Root
    // consumes the receives it posted before Stage 1 in completion
    // order; non-roots ship their block as a buffered isend and move
    // straight on to the result broadcast.
    if (comm.is_root()) {
      std::vector<Matrix> blocks(static_cast<std::size_t>(comm.size()));
      blocks[0] = std::move(wlocal);
      {
        PARSVD_TRACE_SCOPE("apmos.stage3.gather");
        for (std::size_t n = 0; n < w_reqs.size(); ++n) {
          const std::size_t which = pmpi::wait_any(w_reqs);
          blocks[which + 1] = w_reqs[which].take_matrix();
        }
      }
      SvdResult f = root_svd(hcat(blocks));
      x = std::move(f.u);
      lambda = std::move(f.s);
    } else {
      comm.isend_matrix(wlocal, 0, pmpi::tags::apmos_w());
    }
    comm.bcast_matrix(x, 0);
    {
      std::vector<double> lam(lambda.begin(), lambda.end());
      comm.bcast(lam, 0);
      lambda = Vector(static_cast<Index>(lam.size()));
      std::copy(lam.begin(), lam.end(), lambda.begin());
    }
  }

  // Stage 6: lift the global right-space modes through the local block:
  // Ũ^i = A^i X̃ diag(1/Λ̃).
  PARSVD_TRACE_SCOPE("apmos.stage6.lift");
  ApmosResult out;
  out.u_local = matmul(a_local, x);
  out.s = lambda;
  out.report = std::move(report);
  const double cutoff = (lambda.size() > 0 ? lambda[0] : 0.0) * 1e-14;
  for (Index j = 0; j < out.u_local.cols(); ++j) {
    if (lambda[j] > cutoff && lambda[j] > 0.0) {
      scal(1.0 / lambda[j], out.u_local.col_span(j));
    } else {
      auto col = out.u_local.col_span(j);
      std::fill(col.begin(), col.end(), 0.0);
    }
  }
  return out;
}

}  // namespace parsvd
