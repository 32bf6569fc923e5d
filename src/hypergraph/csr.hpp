/// \file csr.hpp
/// \brief Immutable CSR (compressed sparse row) snapshot of a projected
/// graph: cache-friendly sorted neighbor ranges, O(log d) adjacency tests,
/// and fast sorted-merge common-neighbor iteration. It is the only graph
/// type the read-only kernels accept (maximal-clique enumeration,
/// degeneracy ordering, MHH, motif statistics, feature extraction,
/// scoring); the mutable hash-map `ProjectedGraph` is only peeled and
/// snapshotted. The reconstruction loop follows a snapshot-then-peel
/// pattern (see docs/ARCHITECTURE.md "The hot path"): it runs the
/// read-heavy kernels on the frozen snapshot — in parallel, since it never
/// changes — applies the accepted peels to the mutable graph, and patches
/// the snapshot's touched rows.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"

namespace marioh {

/// Immutable weighted-graph snapshot in CSR layout.
class CsrGraph {
 public:
  /// An empty snapshot (0 nodes); a placeholder to patch or assign into.
  CsrGraph() = default;

  /// Builds a snapshot of `g`. Neighbors of every node are sorted by id.
  /// `num_threads` parallelizes the per-row sort (0 = all cores); the
  /// result is identical for any thread count.
  explicit CsrGraph(const ProjectedGraph& g, int num_threads = 1);

  /// Incremental snapshot reuse: builds a snapshot of `g` by patching
  /// `prev`, a snapshot of an earlier state of the same graph from which
  /// `g` differs only in the adjacency rows of `touched_nodes` (e.g. the
  /// members of cliques peeled since `prev` was taken — peeling only
  /// mutates edges whose two endpoints are both in the peeled clique, so
  /// every other row is bit-identical and is copied straight from `prev`
  /// instead of being re-gathered and re-sorted from the hash map).
  /// `touched_nodes` may be in any order and contain duplicates; nodes
  /// whose rows did not actually change are harmless (their rebuilt rows
  /// come out identical). The result is bit-identical to `CsrGraph(g)`
  /// for any thread count.
  CsrGraph(const CsrGraph& prev, const ProjectedGraph& g,
           std::span<const NodeId> touched_nodes, int num_threads = 1);

  /// Number of nodes.
  size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of undirected edges.
  size_t num_edges() const { return neighbors_.size() / 2; }

  /// Degree of node u.
  size_t Degree(NodeId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Weighted degree: sum of w(u,v) over neighbors v. O(1), precomputed.
  uint64_t WeightedDegree(NodeId u) const { return weighted_degrees_[u]; }

  /// Sorted neighbor ids of u.
  std::span<const NodeId> Neighbors(NodeId u) const {
    return {neighbors_.data() + offsets_[u],
            neighbors_.data() + offsets_[u + 1]};
  }

  /// Weights aligned with Neighbors(u).
  std::span<const uint32_t> Weights(NodeId u) const {
    return {weights_.data() + offsets_[u],
            weights_.data() + offsets_[u + 1]};
  }

  /// Weight of edge (u, v); 0 if absent. O(log deg(u)).
  uint32_t Weight(NodeId u, NodeId v) const;

  /// True if {u, v} is an edge.
  bool HasEdge(NodeId u, NodeId v) const { return Weight(u, v) > 0; }

  /// Common neighbors of u and v by sorted merge; ascending order.
  std::vector<NodeId> CommonNeighbors(NodeId u, NodeId v) const;

  /// |N(u) ∩ N(v)| (excluding u and v themselves) by sorted merge,
  /// without materializing the intersection.
  size_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// MHH (Eq. (1)) computed on the snapshot; matches
  /// ProjectedGraph::Mhh on the same graph.
  uint64_t Mhh(NodeId u, NodeId v) const;

  /// True if every pair of distinct nodes in `nodes` (a canonical
  /// NodeSet or CliqueView) is an edge — i.e. `nodes` is a clique of
  /// this snapshot.
  bool IsClique(std::span<const NodeId> nodes) const;

  /// Sum of all edge weights.
  uint64_t TotalWeight() const { return total_weight_; }

 private:
  std::vector<size_t> offsets_;     // size num_nodes + 1
  std::vector<NodeId> neighbors_;   // concatenated sorted adjacency
  std::vector<uint32_t> weights_;   // aligned with neighbors_
  std::vector<uint64_t> weighted_degrees_;  // size num_nodes
  uint64_t total_weight_ = 0;
};

}  // namespace marioh
