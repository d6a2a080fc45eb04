// Pure schedule math for every SPMD protocol in the library.
//
// Each function here derives, from nothing but (rank, P) (plus the
// payload size, for reduce), WHO a rank talks to and in WHAT order — no
// payloads, no threads, no Context. The production paths
// (Communicator collectives in comm.hpp/comm.cpp) and the static
// verifier (src/verify) both consume
// these functions, so the schedule the model checker proves
// deadlock-free is, by construction, the schedule the solvers post.
// Changing a topology here changes both sides at once; a divergence is
// impossible rather than merely tested for.
//
// "P" is a COMMUNICATOR size, not necessarily the Context's world size:
// group communicators (Communicator::split / subgroup) call in with
// their group size and dense group ranks, so every tree shape — and the
// reduce topology rule — applies per group exactly as it does world-wide.
//
// One topology per collective (DESIGN §7): gather is the flat root loop,
// bcast the binomial tree, allreduce is reduce(0) + bcast(0); only reduce
// switches between flat and binomial, on inputs every rank agrees on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace parsvd::pmpi::topology {

/// Lowest set bit of a positive rank (0 for vrank 0, the tree root).
constexpr int lowbit(int v) { return v & -v; }

/// Parent of `vrank` in the binomial tree rooted at virtual rank 0:
/// the lowest set bit cleared. Meaningless (returns 0) for the root.
constexpr int binomial_parent(int vrank) { return vrank & (vrank - 1); }

/// Children of `vrank` in the binomial tree over `p` ranks: vrank + m
/// for every power-of-two m below vrank's lowest set bit (below p for
/// the root), clipped to p. Reduce receives in ASCENDING mask
/// order (small subtrees complete first while big ones are still
/// aggregating below); broadcast fans out in DESCENDING mask order
/// (big subtrees get the payload first so their forwarding overlaps
/// the small sends).
inline std::vector<int> binomial_children(int vrank, int p, bool ascending) {
  const int limit = vrank == 0 ? p : lowbit(vrank);
  std::vector<int> children;
  for (int mask = 1; mask < limit && vrank + mask < p; mask <<= 1) {
    children.push_back(vrank + mask);
  }
  if (!ascending) std::reverse(children.begin(), children.end());
  return children;
}

// ------------------------------------------------ reduce topology rule
// Reduce is the one collective with two topologies. Measured, neither
// loses everywhere: at P = 8 flat and tree trade places across payload
// sizes, at P = 16 the tree wins (DESIGN §7). So both stay, under the
// thresholds the library has always shipped. The inputs are the rank count and the reduce length, which is
// symmetric by API contract, so every rank picks the same topology.

/// Smallest communicator that reduces through the binomial tree.
inline constexpr int kTreeReduceMinRanks = 8;
/// Smallest payload (bytes) that reduces through the binomial tree.
inline constexpr std::uint64_t kTreeReduceMinBytes = std::uint64_t{1} << 14;

constexpr bool use_tree_reduce(int p, std::uint64_t bytes) {
  return p >= kTreeReduceMinRanks && bytes >= kTreeReduceMinBytes;
}

}  // namespace parsvd::pmpi::topology
