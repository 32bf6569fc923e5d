// Focused tests for Algorithm 3 (bidirectional search): threshold
// behavior, the r% sub-clique exploration, re-validation against the
// shrinking graph, and determinism.

#include <gtest/gtest.h>

#include "core/bidirectional.hpp"
#include "core/classifier.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"

namespace marioh::core {
namespace {

/// Trains a classifier on a small community dataset once per suite.
class BidirectionalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen::GeneratedDataset data =
        gen::Generate(gen::ProfileByName("hosts"), 3);
    util::Rng split_rng(4);
    gen::SourceTargetSplit split = gen::SplitHypergraph(
        data.hypergraph.MultiplicityReduced(), &split_rng, 0.5);
    source_ = new Hypergraph(std::move(split.source));
    target_ = new Hypergraph(std::move(split.target));
    g_source_ = new ProjectedGraph(source_->Project());
    g_target_ = new ProjectedGraph(target_->Project());
    classifier_ =
        new CliqueClassifier(FeatureMode::kMultiplicityAware, {});
    util::Rng train_rng(5);
    classifier_->Train(*g_source_, *source_, &train_rng);
  }
  static void TearDownTestSuite() {
    delete classifier_;
    delete g_target_;
    delete g_source_;
    delete target_;
    delete source_;
  }

  static Hypergraph* source_;
  static Hypergraph* target_;
  static ProjectedGraph* g_source_;
  static ProjectedGraph* g_target_;
  static CliqueClassifier* classifier_;
};

Hypergraph* BidirectionalTest::source_ = nullptr;
Hypergraph* BidirectionalTest::target_ = nullptr;
ProjectedGraph* BidirectionalTest::g_source_ = nullptr;
ProjectedGraph* BidirectionalTest::g_target_ = nullptr;
CliqueClassifier* BidirectionalTest::classifier_ = nullptr;

TEST_F(BidirectionalTest, ThetaOnePutsEverythingInQneg) {
  // Scores are sigmoid outputs < 1, so theta = 1 means no clique passes
  // Phase 1; only Phase 2 sub-clique exploration can accept.
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 1.0;
  options.r_percent = 100.0;
  util::Rng rng(7);
  BidirectionalStats stats =
      BidirectionalSearch(&g, *classifier_, options, &rng, &h);
  EXPECT_EQ(stats.accepted_phase1, 0u);
  // Sub-cliques are scored but cannot pass theta = 1 either.
  EXPECT_EQ(stats.accepted_phase2, 0u);
  EXPECT_EQ(h.num_total_edges(), 0u);
  EXPECT_EQ(g.TotalWeight(), g_target_->TotalWeight());  // untouched
}

TEST_F(BidirectionalTest, RZeroDisablesSubcliqueSampling) {
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.99;  // keep most cliques below threshold
  options.r_percent = 0.0;
  util::Rng rng(8);
  BidirectionalStats stats =
      BidirectionalSearch(&g, *classifier_, options, &rng, &h);
  EXPECT_EQ(stats.subcliques_scored, 0u);
}

TEST_F(BidirectionalTest, RHundredExploresEveryNegClique) {
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 1.0;  // everything in Q_neg
  options.r_percent = 100.0;
  util::Rng rng(9);
  BidirectionalStats stats =
      BidirectionalSearch(&g, *classifier_, options, &rng, &h);
  // One sample per size k in [2, |Q|-1] per clique: the total equals
  // sum over cliques of (|Q| - 2); verify it is positive and bounded.
  size_t upper = 0;
  for (const NodeSet& q : EnumerateMaximalCliques(*g_target_).cliques.ToNodeSets()) {
    upper += q.size() > 2 ? q.size() - 2 : 0;
  }
  EXPECT_LE(stats.subcliques_scored, upper);
  EXPECT_GT(upper, 0u);
}

TEST_F(BidirectionalTest, ThetaZeroConsumesWeightEveryIteration) {
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.0;
  util::Rng rng(10);
  uint64_t before = g.TotalWeight();
  BidirectionalStats stats =
      BidirectionalSearch(&g, *classifier_, options, &rng, &h);
  EXPECT_GT(stats.accepted_phase1, 0u);
  EXPECT_LT(g.TotalWeight(), before);
}

TEST_F(BidirectionalTest, AcceptedHyperedgesAreCliquesOfPreGraph) {
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.3;
  util::Rng rng(11);
  BidirectionalSearch(&g, *classifier_, options, &rng, &h);
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    EXPECT_TRUE(g_target_->IsClique(e));
  }
}

TEST_F(BidirectionalTest, WeightConservation) {
  // Weight removed from the graph equals the total pairwise footprint of
  // the accepted hyperedges.
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.2;
  util::Rng rng(12);
  uint64_t before = g.TotalWeight();
  BidirectionalSearch(&g, *classifier_, options, &rng, &h);
  uint64_t footprint = 0;
  for (const auto& [e, m] : h.edges()) {
    footprint += static_cast<uint64_t>(e.size() * (e.size() - 1) / 2) * m;
  }
  EXPECT_EQ(before - g.TotalWeight(), footprint);
}

TEST_F(BidirectionalTest, DeterministicGivenSeed) {
  // The same seed gives the same iteration for any thread count:
  // enumeration and both scoring phases fan out with util::ParallelFor.
  BidirectionalOptions options;
  options.theta = 0.5;
  ProjectedGraph g1 = *g_target_;
  Hypergraph h1(g1.num_nodes());
  util::Rng r1(13);
  BidirectionalStats s1 =
      BidirectionalSearch(&g1, *classifier_, options, &r1, &h1);
  EXPECT_GT(s1.subcliques_scored, 0u);
  for (int threads : {1, 4}) {
    options.num_threads = threads;
    ProjectedGraph g = *g_target_;
    Hypergraph h(g.num_nodes());
    util::Rng r(13);
    BidirectionalStats s =
        BidirectionalSearch(&g, *classifier_, options, &r, &h);
    EXPECT_EQ(h.edges(), h1.edges()) << "threads=" << threads;
    EXPECT_EQ(s.maximal_cliques, s1.maximal_cliques);
    EXPECT_EQ(s.accepted_phase1, s1.accepted_phase1);
    EXPECT_EQ(s.accepted_phase2, s1.accepted_phase2);
    EXPECT_EQ(s.subcliques_scored, s1.subcliques_scored);
    EXPECT_EQ(s.cliques_truncated, s1.cliques_truncated);
    EXPECT_EQ(s.cancelled, s1.cancelled);
    EXPECT_EQ(s.touched_nodes, s1.touched_nodes);
  }
}

TEST_F(BidirectionalTest, Phase2ScoresSubcliquesOnTheResidualGraph) {
  // Phase 1 draws nothing from the rng, so a run without Phase 2 leaves
  // the graph exactly as Phase 1 leaves it inside a full run. Every
  // sub-clique Phase 2 accepts must clear theta on that residual graph.
  size_t checked = 0;
  for (double theta : {0.2, 0.3, 0.4, 0.5, 0.6}) {
    BidirectionalOptions options;
    options.theta = theta;
    options.r_percent = 100.0;
    options.explore_subcliques = false;
    ProjectedGraph residual = *g_target_;
    Hypergraph h_phase1(residual.num_nodes());
    util::Rng r1(17);
    BidirectionalSearch(&residual, *classifier_, options, &r1, &h_phase1);

    options.explore_subcliques = true;
    ProjectedGraph g = *g_target_;
    Hypergraph h(g.num_nodes());
    util::Rng r2(17);
    BidirectionalSearch(&g, *classifier_, options, &r2, &h);
    const CsrGraph after_phase1(residual);
    for (const auto& [e, m] : h.edges()) {
      (void)m;
      if (h_phase1.edges().count(e) > 0) continue;
      ++checked;
      EXPECT_GT(classifier_->Score(after_phase1, e, /*is_maximal=*/false),
                theta);
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(BidirectionalTest, EmptyGraphIsNoOp) {
  ProjectedGraph g(10);
  Hypergraph h(10);
  BidirectionalOptions options;
  util::Rng rng(14);
  BidirectionalStats stats =
      BidirectionalSearch(&g, *classifier_, options, &rng, &h);
  EXPECT_EQ(stats.maximal_cliques, 0u);
  EXPECT_EQ(h.num_total_edges(), 0u);
}

TEST_F(BidirectionalTest, Size2CliquesHaveNoSubcliques) {
  // A graph that is a single edge: in Q_neg at theta = 1, but k ranges
  // over [2, |Q|-1] = empty, so nothing is scored.
  ProjectedGraph g(2);
  g.AddWeight(0, 1, 1);
  Hypergraph h(2);
  BidirectionalOptions options;
  options.theta = 1.0;
  options.r_percent = 100.0;
  util::Rng rng(15);
  BidirectionalStats stats =
      BidirectionalSearch(&g, *classifier_, options, &rng, &h);
  EXPECT_EQ(stats.subcliques_scored, 0u);
}

}  // namespace
}  // namespace marioh::core
