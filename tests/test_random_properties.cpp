// Randomized cross-module consistency properties, run over many seeds:
// identities that must hold for every hypergraph (projection weight
// accounting, metric identities, structural-scalar identities, degeneracy
// ordering soundness, split/recombine round trips).

#include <gtest/gtest.h>

#include <numeric>

#include "eval/metrics.hpp"
#include "eval/structural.hpp"
#include "gen/hypercl.hpp"
#include "gen/split.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "util/rng.hpp"

namespace marioh {
namespace {

class RandomHypergraph : public ::testing::TestWithParam<uint64_t> {
 protected:
  Hypergraph Make() {
    util::Rng rng(GetParam() * 7919 + 13);
    Hypergraph h = gen::HyperClLike(50, 90, 3.0, 0.7, &rng);
    // Sprinkle multiplicities.
    for (const NodeSet& e : h.UniqueEdges()) {
      if (rng.Bernoulli(0.3)) {
        h.AddEdge(e, static_cast<uint32_t>(rng.UniformInt(1, 3)));
      }
    }
    return h;
  }
};

TEST_P(RandomHypergraph, ProjectionWeightAccounting) {
  // Total projected weight equals sum over hyperedges of m * C(|e|, 2).
  Hypergraph h = Make();
  uint64_t expected = 0;
  for (const auto& [e, m] : h.edges()) {
    expected += static_cast<uint64_t>(e.size() * (e.size() - 1) / 2) * m;
  }
  EXPECT_EQ(h.Project().TotalWeight(), expected);
}

TEST_P(RandomHypergraph, SelfSimilarityIdentities) {
  Hypergraph h = Make();
  EXPECT_DOUBLE_EQ(eval::Jaccard(h, h), 1.0);
  EXPECT_DOUBLE_EQ(eval::MultiJaccard(h, h), 1.0);
  EXPECT_DOUBLE_EQ(eval::Precision(h, h), 1.0);
  EXPECT_DOUBLE_EQ(eval::Recall(h, h), 1.0);
  // Multiplicity reduction never changes plain Jaccard.
  EXPECT_DOUBLE_EQ(eval::Jaccard(h, h.MultiplicityReduced()), 1.0);
}

TEST_P(RandomHypergraph, MultiJaccardUpperBoundsByJaccardStructure) {
  // For any pair, multi-Jaccard <= 1 and hits 1 only on equality.
  util::Rng rng(GetParam());
  Hypergraph a = Make();
  Hypergraph b = a;
  // Perturb b.
  std::vector<NodeSet> edges = a.UniqueEdges();
  const NodeSet& victim = edges[rng.UniformIndex(edges.size())];
  b.RemoveEdge(victim, 1);
  double mj = eval::MultiJaccard(a, b);
  EXPECT_LT(mj, 1.0);
  EXPECT_GE(mj, 0.0);
}

TEST_P(RandomHypergraph, StructuralScalarIdentities) {
  // By definition: overlapness == average node degree (both equal
  // sum(|e| * m) / covered nodes) and density == unique edges / covered.
  Hypergraph h = Make();
  eval::ScalarProperties p = eval::ComputeScalars(h, GetParam());
  EXPECT_NEAR(p.overlapness, p.avg_node_degree, 1e-9);
  EXPECT_NEAR(p.density * p.num_nodes,
              static_cast<double>(h.num_unique_edges()), 1e-6);
  EXPECT_GE(p.simplicial_closure, 0.0);
  EXPECT_LE(p.simplicial_closure, 1.0);
}

TEST_P(RandomHypergraph, SplitRecombineIsIdentity) {
  Hypergraph h = Make();
  util::Rng rng(GetParam() ^ 0xabcULL);
  gen::SourceTargetSplit split = gen::SplitHypergraph(h, &rng, 0.5);
  Hypergraph recombined(h.num_nodes());
  for (const auto& [e, m] : split.source.edges()) recombined.AddEdge(e, m);
  for (const auto& [e, m] : split.target.edges()) recombined.AddEdge(e, m);
  EXPECT_DOUBLE_EQ(eval::MultiJaccard(h, recombined), 1.0);
}

TEST_P(RandomHypergraph, DegeneracyOrderingIsSound) {
  // In a degeneracy ordering, every node has at most `degeneracy`
  // neighbors that come later in the order.
  CsrGraph g(Make().Project());
  size_t degeneracy = 0;
  std::vector<NodeId> order = DegeneracyOrdering(g, &degeneracy);
  ASSERT_EQ(order.size(), g.num_nodes());
  std::vector<size_t> pos(g.num_nodes());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    size_t later = 0;
    for (NodeId v : g.Neighbors(u)) {
      if (pos[v] > pos[u]) ++later;
    }
    EXPECT_LE(later, degeneracy) << "node " << u;
  }
}

TEST_P(RandomHypergraph, MaximalCliqueOfProjectionContainsEveryHyperedge) {
  // Every hyperedge is a clique of the projection, hence contained in at
  // least one maximal clique.
  Hypergraph h = Make();
  std::vector<NodeSet> cliques =
      EnumerateMaximalCliques(CsrGraph(h.Project())).cliques.ToNodeSets();
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    bool contained = false;
    for (const NodeSet& q : cliques) {
      if (std::includes(q.begin(), q.end(), e.begin(), e.end())) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHypergraph,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace marioh
