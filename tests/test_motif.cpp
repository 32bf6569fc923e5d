// Tests for motif statistics (triangles, wedges, clustering coefficients,
// squares) on CSR snapshots and the kMotif feature mode used by
// SHyRe-Motif.

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>

#include "core/features.hpp"
#include "core/motif.hpp"
#include "hypergraph/csr.hpp"
#include "hypergraph/projected_graph.hpp"

namespace marioh::core {
namespace {

CsrGraph Complete(size_t n) {
  ProjectedGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.AddWeight(u, v, 1);
  }
  return CsrGraph(g);
}

/// Snapshot of the graph on `n` nodes with the given unit-weight edges.
CsrGraph FromEdges(size_t n,
                   std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  ProjectedGraph g(n);
  for (const auto& [u, v] : edges) g.AddWeight(u, v, 1);
  return CsrGraph(g);
}

TEST(Motif, TrianglesThroughEdgeOnK4) {
  CsrGraph g = Complete(4);
  // In K4 every edge lies in 2 triangles.
  EXPECT_EQ(TrianglesThroughEdge(g, 0, 1), 2u);
  EXPECT_EQ(TrianglesThroughEdge(g, 2, 3), 2u);
}

TEST(Motif, TrianglesAtNode) {
  CsrGraph g = Complete(4);
  // Each node of K4 is in C(3,2) = 3 triangles.
  EXPECT_EQ(TrianglesAtNode(g, 0), 3u);
  // A path has none.
  CsrGraph path = FromEdges(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(TrianglesAtNode(path, 1), 0u);
}

TEST(Motif, WedgesAtNode) {
  CsrGraph g = Complete(4);
  EXPECT_EQ(WedgesAtNode(g, 0), 3u);  // C(3,2)
  CsrGraph single = FromEdges(2, {{0, 1}});
  EXPECT_EQ(WedgesAtNode(single, 0), 0u);
}

TEST(Motif, ClusteringCoefficient) {
  CsrGraph g = Complete(4);
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(g, 0), 1.0);
  // Star center: no triangles.
  CsrGraph star = FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(star, 0), 0.0);
  // Degree < 2: defined as 0.
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(star, 1), 0.0);
}

TEST(Motif, SquaresThroughEdge) {
  // 4-cycle 0-1-2-3-0: edge (0,1) participates in exactly one square via
  // x = 3 (neighbor of 0), y = 2 (neighbor of 1), edge (3,2).
  CsrGraph g = FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(SquaresThroughEdge(g, 0, 1), 1u);
  // A triangle has no squares.
  CsrGraph tri = Complete(3);
  EXPECT_EQ(SquaresThroughEdge(tri, 0, 1), 0u);
}

TEST(Motif, SquaresOnK4) {
  // K4: edge (0,1); x in {2,3}, y in {2,3}, x != y, both (2,3) and (3,2)
  // ordered pairs connected -> 2 squares (each 4-cycle counted once per
  // direction of the (x, y) pair).
  CsrGraph g = Complete(4);
  EXPECT_EQ(SquaresThroughEdge(g, 0, 1), 2u);
}

TEST(Motif, SquaresCapKeepsTheSmallestNeighborIds) {
  // Edge (0,1) with N(0)\{1} = {2,3,4,5} and N(1)\{0} = {6,7,8,9};
  // the square-closing edges are (2,6), (3,7), (5,8) and (5,9).
  CsrGraph g = FromEdges(10, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
                              {1, 6}, {1, 7}, {1, 8}, {1, 9},
                              {2, 6}, {3, 7}, {5, 8}, {5, 9}});
  EXPECT_EQ(SquaresThroughEdge(g, 0, 1), 4u);
  // Cap 3 keeps {2,3,4} x {6,7,8}: only (2,6) and (3,7) close a square.
  // (The 3 largest ids, {3,4,5} x {7,8,9}, would give 3.)
  EXPECT_EQ(SquaresThroughEdge(g, 0, 1, 3), 2u);
}

TEST(MotifFeatures, DimensionAndContent) {
  FeatureExtractor fx(FeatureMode::kMotif);
  EXPECT_EQ(fx.dim(), 23u);
  CsrGraph g = Complete(4);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  ASSERT_EQ(f.size(), 23u);
  // First 13 dims match the structural extractor exactly.
  FeatureExtractor structural(FeatureMode::kStructural);
  la::Vector s = structural.Extract(g, NodeSet{0, 1, 2}, true);
  for (size_t i = 0; i < 13; ++i) {
    EXPECT_DOUBLE_EQ(f[i], s[i]) << "dim " << i;
  }
  // Clustering coefficients in K4 are all 1 -> mean (slot 14) is 1.
  EXPECT_DOUBLE_EQ(f[14], 1.0);
  // Std of clustering (slot 17) is 0.
  EXPECT_DOUBLE_EQ(f[17], 0.0);
}

TEST(MotifFeatures, DiffersFromStructuralOnCycleRichGraphs) {
  // Two graphs with identical degrees/common-neighbor profiles for the
  // probe edge but different square counts must be distinguished by the
  // motif features.
  CsrGraph cycle = FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  // Same degrees at 0,1 but no square.
  CsrGraph path = FromEdges(6, {{0, 1}, {1, 2}, {0, 3}, {2, 4}});
  FeatureExtractor fx(FeatureMode::kMotif);
  la::Vector a = fx.Extract(cycle, NodeSet{0, 1}, false);
  la::Vector b = fx.Extract(path, NodeSet{0, 1}, false);
  // Square-count aggregate (slots 18..22) must differ.
  EXPECT_NE(a[18], b[18]);
}

}  // namespace
}  // namespace marioh::core
