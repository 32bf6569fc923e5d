/// \file motif.hpp
/// \brief Local motif statistics (triangles, wedges, squares) around nodes
/// and edges of a `CsrGraph` snapshot — the extra signal SHyRe-Motif adds
/// on top of count features [6]. Work caps truncate neighbor lists in
/// ascending-id order, so capped statistics depend only on the graph.

#pragma once

#include <cstdint>

#include "hypergraph/csr.hpp"
#include "hypergraph/types.hpp"

namespace marioh::core {

/// Number of triangles through the edge (u, v): |N(u) ∩ N(v)|.
uint64_t TrianglesThroughEdge(const CsrGraph& g, NodeId u, NodeId v);

/// Number of triangles containing node u (each counted once).
uint64_t TrianglesAtNode(const CsrGraph& g, NodeId u);

/// Number of wedges (paths of length 2) centered at node u:
/// C(deg(u), 2).
uint64_t WedgesAtNode(const CsrGraph& g, NodeId u);

/// Local clustering coefficient of node u: triangles / wedges (0 when the
/// node has fewer than two neighbors).
double ClusteringCoefficient(const CsrGraph& g, NodeId u);

/// Number of squares (4-cycles) through the edge (u, v): pairs (x, y) with
/// x in N(u)\{v}, y in N(v)\{u}, x != y and {x,y} an edge. Work is capped
/// by `max_neighbors` per endpoint for dense graphs; the cap keeps the
/// `max_neighbors` smallest-id neighbors.
uint64_t SquaresThroughEdge(const CsrGraph& g, NodeId u, NodeId v,
                            size_t max_neighbors = 64);

}  // namespace marioh::core
