// Unit tests for the clique feature extraction (Sect. III-D) on CSR
// snapshots: dimensions, specific feature values on hand-computed graphs,
// and both feature modes.

#include <gtest/gtest.h>

#include "core/features.hpp"
#include "hypergraph/csr.hpp"
#include "hypergraph/hypergraph.hpp"

namespace marioh::core {
namespace {

/// Triangle 0-1-2 with weights w(0,1)=2, w(0,2)=1, w(1,2)=3, plus a
/// pendant edge 2-3 with weight 4.
ProjectedGraph FixtureProjected() {
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 2);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 3);
  g.AddWeight(2, 3, 4);
  return g;
}

CsrGraph FixtureGraph() { return CsrGraph(FixtureProjected()); }

TEST(FeatureExtractor, MultiplicityAwareDimension) {
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  EXPECT_EQ(fx.dim(), 23u);
  CsrGraph g = FixtureGraph();
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  EXPECT_EQ(f.size(), 23u);
}

TEST(FeatureExtractor, StructuralDimension) {
  FeatureExtractor fx(FeatureMode::kStructural);
  EXPECT_EQ(fx.dim(), 13u);
  CsrGraph g = FixtureGraph();
  la::Vector f = fx.Extract(g, NodeSet{0, 1}, false);
  EXPECT_EQ(f.size(), 13u);
}

TEST(FeatureExtractor, WeightedDegreeAggregation) {
  CsrGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  // Weighted degrees: node0 = 2+1 = 3, node1 = 2+3 = 5, node2 = 1+3+4 = 8.
  EXPECT_DOUBLE_EQ(f[0], 16.0);           // sum
  EXPECT_DOUBLE_EQ(f[1], 16.0 / 3.0);     // mean
  EXPECT_DOUBLE_EQ(f[2], 3.0);            // min
  EXPECT_DOUBLE_EQ(f[3], 8.0);            // max
}

TEST(FeatureExtractor, EdgeMultiplicityAggregation) {
  CsrGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  // Edge multiplicities within the clique: 2, 1, 3.
  EXPECT_DOUBLE_EQ(f[5], 6.0);   // sum
  EXPECT_DOUBLE_EQ(f[6], 2.0);   // mean
  EXPECT_DOUBLE_EQ(f[7], 1.0);   // min
  EXPECT_DOUBLE_EQ(f[8], 3.0);   // max
}

TEST(FeatureExtractor, MhhFeatures) {
  CsrGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  // MHH within the triangle: MHH(0,1) = min(w(0,2), w(1,2)) = min(1,3) = 1;
  // MHH(0,2) = min(w(0,1), w(2,1)) = min(2,3) = 2;
  // MHH(1,2) = min(w(1,0), w(2,0)) = min(2,1) = 1.
  // Slots 10..14 aggregate {1, 2, 1}.
  EXPECT_DOUBLE_EQ(f[10], 4.0);          // sum
  EXPECT_DOUBLE_EQ(f[12], 1.0);          // min
  EXPECT_DOUBLE_EQ(f[13], 2.0);          // max
  // MHH ratios: 1/2, 2/1, 1/3 -> slot 15 sum.
  EXPECT_NEAR(f[15], 0.5 + 2.0 + 1.0 / 3.0, 1e-12);
}

TEST(FeatureExtractor, CliqueLevelFeatures) {
  CsrGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  EXPECT_DOUBLE_EQ(f[20], 3.0);  // clique size
  // Cut ratio: internal weight 6, boundary = wdeg sum 16 - 2*6 = 4
  // -> 6 / (6 + 4) = 0.6.
  EXPECT_DOUBLE_EQ(f[21], 0.6);
  EXPECT_DOUBLE_EQ(f[22], 1.0);  // maximal flag
  la::Vector f2 = fx.Extract(g, NodeSet{0, 1, 2}, false);
  EXPECT_DOUBLE_EQ(f2[22], 0.0);
}

TEST(FeatureExtractor, Size2CliqueHasOneEdge) {
  CsrGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{2, 3}, true);
  // Only edge (2,3) with weight 4; min == max == mean == 4.
  EXPECT_DOUBLE_EQ(f[6], 4.0);
  EXPECT_DOUBLE_EQ(f[7], 4.0);
  EXPECT_DOUBLE_EQ(f[8], 4.0);
  EXPECT_DOUBLE_EQ(f[9], 0.0);  // std of single value
  EXPECT_DOUBLE_EQ(f[20], 2.0);
}

TEST(FeatureExtractor, StructuralUsesUnweightedDegrees) {
  CsrGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kStructural);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  // Unweighted degrees: 2, 2, 3 -> sum 7.
  EXPECT_DOUBLE_EQ(f[0], 7.0);
  EXPECT_DOUBLE_EQ(f[2], 2.0);  // min
  EXPECT_DOUBLE_EQ(f[3], 3.0);  // max
}

TEST(FeatureExtractor, FeaturesChangeWhenGraphShrinks) {
  // Features must be recomputed against the residual graph: peeling an
  // overlapping clique changes the features of the remaining one.
  ProjectedGraph g = FixtureProjected();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector before = fx.Extract(CsrGraph(g), NodeSet{0, 1, 2}, true);
  g.PeelClique(NodeSet{1, 2});  // decrement w(1,2)
  la::Vector after = fx.Extract(CsrGraph(g), NodeSet{0, 1, 2}, true);
  EXPECT_NE(before[5], after[5]);  // edge multiplicity sum changed
}

TEST(FeatureExtractor, IsolatedCliqueCutRatioIsOne) {
  ProjectedGraph g(3);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(CsrGraph(g), NodeSet{0, 1, 2}, true);
  EXPECT_DOUBLE_EQ(f[21], 1.0);  // all weight internal
}

TEST(FeatureExtractor, NeighborhoodDensityKeepsTheSmallestIdsOfAHub) {
  // Hub 0 with 100 neighbors 1..100, one extra low edge (1,2) and a
  // 10-clique on 91..100. The density pass gathers at most 64 node ids:
  // the clique {0, 1}, then the hub's neighbors in ascending id order
  // (1, 2, ..., 62), so the deduplicated neighborhood is {0, ..., 62}.
  ProjectedGraph g(101);
  for (NodeId v = 1; v <= 100; ++v) g.AddWeight(0, v, 1);
  g.AddWeight(1, 2, 1);
  for (NodeId u = 91; u <= 100; ++u) {
    for (NodeId v = u + 1; v <= 100; ++v) g.AddWeight(u, v, 1);
  }
  FeatureExtractor fx(FeatureMode::kStructural);
  la::Vector f = fx.Extract(CsrGraph(g), NodeSet{0, 1}, true);
  // 63 nodes -> 1953 pairs; present: the 62 hub edges plus (1,2). The
  // uncapped neighborhood would give (100 + 1 + 45) / 5050 instead.
  EXPECT_DOUBLE_EQ(f[10], 63.0 / 1953.0);
}

}  // namespace
}  // namespace marioh::core
