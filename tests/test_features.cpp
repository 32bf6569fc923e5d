// Unit tests for the clique feature extraction (Sect. III-D) on CSR
// snapshots: dimensions, specific feature values on hand-computed graphs,
// both feature modes, and byte equality of the scatter-based
// multiplicity-aware rows with the per-pair merge oracle
// (features_oracle.hpp) for every extraction path and thread count.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/features.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/rng.hpp"

#include "features_oracle.hpp"

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

// ---- Scatter-based rows vs the merge oracle ------------------------------

/// True if `row` holds exactly the bytes of the oracle's row for `clique`.
bool MatchesOracle(const CsrGraph& g, CliqueView clique, bool is_maximal,
                   const double* row) {
  la::Vector expected =
      testing_oracle::MultiplicityAwareRow(g, clique, is_maximal);
  return std::memcmp(row, expected.data(),
                     expected.size() * sizeof(double)) == 0;
}

/// A k-subset of the canonical `from`, drawn uniformly.
NodeSet RandomSubset(const NodeSet& from, size_t k, util::Rng* rng) {
  NodeSet out = rng->SampleWithoutReplacement(from, k);
  Canonicalize(&out);
  return out;
}

/// A random multigraph projection on `n` nodes: hyperedges of 2..6 members
/// with multiplicity 1..4 drawn from ids [0, n - 9) plus the max id
/// n - 1, so ids n - 9 .. n - 2 stay isolated.
ProjectedGraph RandomProjection(uint64_t seed, size_t n) {
  util::Rng rng(seed);
  Hypergraph h(n);
  const size_t wired = n - 9;
  for (size_t e = 0; e < 2 * n; ++e) {
    NodeSet edge;
    const size_t size = static_cast<size_t>(rng.UniformInt(2, 6));
    for (size_t i = 0; i < size; ++i) {
      edge.push_back(rng.Bernoulli(0.05)
                         ? static_cast<NodeId>(n - 1)
                         : static_cast<NodeId>(rng.UniformIndex(wired)));
    }
    h.AddEdge(edge, static_cast<uint32_t>(rng.UniformInt(1, 4)));
  }
  return h.Project();
}

/// The candidates a test feeds the extractor: every maximal clique, every
/// edge as a size-2 clique, random sub-cliques, and pairs joining an
/// isolated node to the max id (not cliques; every pair weight is 0).
std::vector<NodeSet> Candidates(const CsrGraph& g, const ProjectedGraph& pg,
                                util::Rng* rng) {
  std::vector<NodeSet> out = EnumerateMaximalCliques(g).cliques.ToNodeSets();
  const size_t maximal = out.size();
  for (size_t i = 0; i < maximal; ++i) {
    if (out[i].size() < 3) continue;
    const size_t k = static_cast<size_t>(
        rng->UniformInt(2, static_cast<int64_t>(out[i].size()) - 1));
    out.push_back(RandomSubset(out[i], k, rng));
  }
  for (const ProjectedGraph::Edge& e : pg.Edges()) {
    out.push_back(NodeSet{std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  const NodeId last = static_cast<NodeId>(g.num_nodes() - 1);
  out.push_back(NodeSet{last - 1, last});
  out.push_back(NodeSet{0, last - 2, last});
  return out;
}

TEST(MultiplicityAwareScatter, MatchesTheMergeOracleOnRandomGraphs) {
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ProjectedGraph pg = RandomProjection(seed, 40 + 10 * seed);
    CsrGraph g(pg);
    ASSERT_GT(g.Degree(static_cast<NodeId>(g.num_nodes() - 1)), 0u);
    util::Rng rng(seed);
    std::vector<NodeSet> cliques = Candidates(g, pg, &rng);
    FeatureScratch scratch;
    la::Vector row(fx.dim());
    for (size_t i = 0; i < cliques.size(); ++i) {
      const bool is_maximal = i % 2 == 0;
      la::Vector one_off = fx.Extract(g, cliques[i], is_maximal);
      EXPECT_TRUE(MatchesOracle(g, cliques[i], is_maximal, one_off.data()))
          << "seed " << seed << " clique " << i;
      fx.ExtractRow(g, cliques[i], is_maximal, &scratch, row.data());
      EXPECT_TRUE(MatchesOracle(g, cliques[i], is_maximal, row.data()))
          << "seed " << seed << " clique " << i;
    }
    for (int threads : {1, 4}) {
      la::Matrix all = fx.ExtractAll(g, cliques, false, threads);
      for (size_t i = 0; i < cliques.size(); ++i) {
        EXPECT_TRUE(MatchesOracle(g, cliques[i], false, all.Row(i)))
            << "seed " << seed << " clique " << i << " threads " << threads;
      }
    }
    // The scratch is all zero between rows.
    for (uint32_t w : scratch.weight_to) ASSERT_EQ(w, 0u);
  }
}

TEST(MultiplicityAwareScatter, MatchesTheMergeOracleOnAnEuSource) {
  gen::GeneratedDataset data = gen::Generate(gen::ProfileByName("eu"), 41);
  util::Rng split_rng(2);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph, &split_rng, 0.5);
  const CsrGraph g(split.source.Project());
  CliqueStore maximal = EnumerateMaximalCliques(g).cliques;
  util::Rng rng(3);
  std::vector<NodeSet> sub;
  for (CliqueView q : maximal) {
    if (q.size() < 3) continue;
    NodeSet members(q.begin(), q.end());
    const size_t k = static_cast<size_t>(
        rng.UniformInt(2, static_cast<int64_t>(q.size()) - 1));
    sub.push_back(RandomSubset(members, k, &rng));
  }
  ASSERT_GT(maximal.size(), 1000u);
  ASSERT_GT(sub.size(), 500u);
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  for (int threads : {1, 4}) {
    la::Matrix rows = fx.ExtractAll(g, maximal, true, threads);
    for (size_t i = 0; i < maximal.size(); ++i) {
      ASSERT_TRUE(MatchesOracle(g, maximal[i], true, rows.Row(i)))
          << "maximal clique " << i << " threads " << threads;
    }
    rows = fx.ExtractAll(g, sub, false, threads);
    for (size_t i = 0; i < sub.size(); ++i) {
      ASSERT_TRUE(MatchesOracle(g, sub[i], false, rows.Row(i)))
          << "sub-clique " << i << " threads " << threads;
    }
  }
}

TEST(MultiplicityAwareScatter, OneScratchServesGraphsOfDifferentSizes) {
  // Rows alternate between a large and a small graph through one scratch:
  // any weight left behind by a member of one graph's clique would land
  // in the other's next row.
  ProjectedGraph large_pg = RandomProjection(11, 200);
  ProjectedGraph small_pg = RandomProjection(12, 40);
  const CsrGraph large(large_pg);
  const CsrGraph small(small_pg);
  util::Rng rng(13);
  std::vector<NodeSet> large_cliques = Candidates(large, large_pg, &rng);
  std::vector<NodeSet> small_cliques = Candidates(small, small_pg, &rng);
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  FeatureScratch scratch;
  la::Vector row(fx.dim());
  const size_t rounds = std::max(large_cliques.size(), small_cliques.size());
  for (size_t i = 0; i < rounds; ++i) {
    // Small first, so the scratch also grows mid-run.
    const NodeSet& s = small_cliques[i % small_cliques.size()];
    fx.ExtractRow(small, s, true, &scratch, row.data());
    ASSERT_TRUE(MatchesOracle(small, s, true, row.data())) << "round " << i;
    const NodeSet& l = large_cliques[i % large_cliques.size()];
    fx.ExtractRow(large, l, false, &scratch, row.data());
    ASSERT_TRUE(MatchesOracle(large, l, false, row.data())) << "round " << i;
  }
  EXPECT_EQ(scratch.weight_to.size(), large.num_nodes());
}

}  // namespace
}  // namespace marioh::core
