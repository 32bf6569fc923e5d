#include "core/motif.hpp"

#include <algorithm>
#include <vector>

namespace marioh::core {
namespace {

/// Collects up to `cap` neighbor ids of u in ascending order, skipping
/// `skip`: a prefix of the sorted CSR row.
std::vector<NodeId> CappedSortedNeighbors(const CsrGraph& g, NodeId u,
                                          NodeId skip, size_t cap) {
  std::vector<NodeId> out;
  auto nbrs = g.Neighbors(u);
  out.reserve(std::min(nbrs.size(), cap));
  for (NodeId v : nbrs) {
    if (v == skip) continue;
    out.push_back(v);
    if (out.size() >= cap) break;
  }
  return out;
}

}  // namespace

uint64_t TrianglesThroughEdge(const CsrGraph& g, NodeId u, NodeId v) {
  return g.CommonNeighborCount(u, v);
}

uint64_t TrianglesAtNode(const CsrGraph& g, NodeId u) {
  // Sum over incident edges of common-neighbor counts double-counts each
  // triangle at u exactly twice (once per incident edge).
  uint64_t twice = 0;
  for (NodeId v : g.Neighbors(u)) {
    twice += TrianglesThroughEdge(g, u, v);
  }
  return twice / 2;
}

uint64_t WedgesAtNode(const CsrGraph& g, NodeId u) {
  uint64_t d = g.Degree(u);
  return d * (d - 1) / 2;
}

double ClusteringCoefficient(const CsrGraph& g, NodeId u) {
  uint64_t wedges = WedgesAtNode(g, u);
  if (wedges == 0) return 0.0;
  return static_cast<double>(TrianglesAtNode(g, u)) /
         static_cast<double>(wedges);
}

uint64_t SquaresThroughEdge(const CsrGraph& g, NodeId u, NodeId v,
                            size_t max_neighbors) {
  std::vector<NodeId> nu = CappedSortedNeighbors(g, u, v, max_neighbors);
  std::vector<NodeId> nv = CappedSortedNeighbors(g, v, u, max_neighbors);
  // A square u-x-y-v-u needs x in N(u), y in N(v), edge (x,y), x != y.
  uint64_t squares = 0;
  for (NodeId x : nu) {
    for (NodeId y : nv) {
      if (x == y) continue;
      if (g.HasEdge(x, y)) ++squares;
    }
  }
  return squares;
}

}  // namespace marioh::core
