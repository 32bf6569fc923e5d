// Tests for text serialization: round trips, format tolerance (comments,
// blank lines, multiplicity suffixes), and error handling on malformed
// input.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/text_io.hpp"

namespace marioh::io {
namespace {

TEST(HypergraphIo, RoundTrip) {
  Hypergraph h;
  h.AddEdge({0, 1, 2}, 1);
  h.AddEdge({1, 3}, 4);
  h.AddEdge({2, 4, 5, 6}, 2);
  std::stringstream buffer;
  WriteHypergraph(h, buffer);
  Hypergraph parsed = ReadHypergraph(buffer);
  EXPECT_EQ(parsed.num_unique_edges(), h.num_unique_edges());
  EXPECT_EQ(parsed.num_total_edges(), h.num_total_edges());
  EXPECT_EQ(parsed.Multiplicity({1, 3}), 4u);
  EXPECT_EQ(parsed.Multiplicity({0, 1, 2}), 1u);
}

TEST(HypergraphIo, ParsesCommentsAndBlankLines) {
  std::stringstream in(
      "# a co-authorship dump\n"
      "\n"
      "0 1 2\n"
      "   \n"
      "3 4 x 5\n");
  Hypergraph h = ReadHypergraph(in);
  EXPECT_EQ(h.num_unique_edges(), 2u);
  EXPECT_EQ(h.Multiplicity({3, 4}), 5u);
}

TEST(HypergraphIo, SkipsDegenerateEdges) {
  std::stringstream in("7\n5 5\n0 1\n");
  Hypergraph h = ReadHypergraph(in);
  EXPECT_EQ(h.num_unique_edges(), 1u);
  EXPECT_TRUE(h.Contains({0, 1}));
}

TEST(HypergraphIo, RejectsBadTokens) {
  std::stringstream in("0 banana\n");
  EXPECT_THROW(ReadHypergraph(in), std::invalid_argument);
}

TEST(HypergraphIo, RejectsSignedAndOutOfRangeNumbers) {
  // All of these used to parse: stoull takes a '+' and reads "-1" as
  // 2^64 - 1, the casts to 32 bits wrapped ids and multiplicities
  // silently, and ids had no upper bound.
  for (const std::string& line : std::vector<std::string>{
           "-1 2", "+1 2", "1 4294967296", "1 2 x -1", "1 2 x 4294967296",
           "1 " + std::to_string(kMaxNodeId + 1)}) {
    std::stringstream in(line + "\n");
    api::StatusOr<Hypergraph> h = TryReadHypergraph(in);
    ASSERT_FALSE(h.ok()) << line;
    EXPECT_EQ(h.status().code(), api::StatusCode::kInvalidArgument) << line;
    EXPECT_NE(h.status().message().find("line 1"), std::string::npos);
  }
  std::stringstream in("0 " + std::to_string(kMaxNodeId) + " x 4294967295\n");
  api::StatusOr<Hypergraph> h = TryReadHypergraph(in);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->num_nodes(), size_t{kMaxNodeId} + 1);
  EXPECT_EQ(h->Multiplicity({0, kMaxNodeId}), 4294967295u);
}

TEST(HypergraphIo, RejectsALineThatOverflowsTheRunningMultiplicity) {
  // Repeated lines add up in 32 bits; "x 4294967295" then "x 2" used to
  // wrap to multiplicity 1.
  std::stringstream in("1 2 x 4294967295\n# again\n2 1 x 2\n");
  api::StatusOr<Hypergraph> h = TryReadHypergraph(in);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().message().find("line 3"), std::string::npos)
      << h.status().message();
  // Up to the limit exactly, the totals still add.
  std::stringstream full("1 2 x 4294967294\n2 1\n");
  h = TryReadHypergraph(full);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->Multiplicity({1, 2}), 4294967295u);
}

TEST(HypergraphIo, MissingFileThrows) {
  EXPECT_THROW(ReadHypergraphFile("/nonexistent/path/h.txt"),
               std::invalid_argument);
}

TEST(ProjectedGraphIo, RoundTrip) {
  ProjectedGraph g(5);
  g.AddWeight(0, 1, 3);
  g.AddWeight(1, 4, 1);
  g.AddWeight(2, 3, 7);
  std::stringstream buffer;
  WriteProjectedGraph(g, buffer);
  ProjectedGraph parsed = ReadProjectedGraph(buffer);
  EXPECT_EQ(parsed.num_edges(), 3u);
  EXPECT_EQ(parsed.Weight(0, 1), 3u);
  EXPECT_EQ(parsed.Weight(2, 3), 7u);
  EXPECT_EQ(parsed.Weight(1, 4), 1u);
}

TEST(ProjectedGraphIo, DefaultWeightIsOne) {
  std::stringstream in("0 1\n2 3 9\n");
  ProjectedGraph g = ReadProjectedGraph(in);
  EXPECT_EQ(g.Weight(0, 1), 1u);
  EXPECT_EQ(g.Weight(2, 3), 9u);
}

TEST(ProjectedGraphIo, RejectsSelfLoops) {
  std::stringstream in("3 3 1\n");
  EXPECT_THROW(ReadProjectedGraph(in), std::invalid_argument);
}

TEST(ProjectedGraphIo, RejectsWrongArity) {
  std::stringstream in("1\n");
  EXPECT_THROW(ReadProjectedGraph(in), std::invalid_argument);
  std::stringstream in2("1 2 3 4\n");
  EXPECT_THROW(ReadProjectedGraph(in2), std::invalid_argument);
}

TEST(ProjectedGraphIo, RejectsSignedAndOutOfRangeNumbers) {
  // "0 -1" and "0 4294967295" used to abort: the id wrapped to 2^32 - 1,
  // so the graph was sized max + 1 = 0 nodes and AddWeight's bounds check
  // fired.
  for (const std::string& line : std::vector<std::string>{
           "0 -1", "0 4294967295", "-0 1", "0 1 -3", "0 1 4294967296",
           "0 " + std::to_string(kMaxNodeId + 1)}) {
    std::stringstream in(line + "\n");
    api::StatusOr<ProjectedGraph> g = TryReadProjectedGraph(in);
    ASSERT_FALSE(g.ok()) << line;
    EXPECT_EQ(g.status().code(), api::StatusCode::kInvalidArgument) << line;
  }
}

TEST(ProjectedGraphIo, RejectsALineThatOverflowsTheRunningWeight) {
  // Repeated edges add up in 32 bits; "0 1 4294967295" then "0 1 1" used
  // to leave a counted edge of weight 0.
  std::stringstream in("0 1 4294967295\n2 3\n1 0 1\n");
  api::StatusOr<ProjectedGraph> g = TryReadProjectedGraph(in);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find("line 3"), std::string::npos)
      << g.status().message();
  std::stringstream full("0 1 4294967294\n1 0\n");
  g = TryReadProjectedGraph(full);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->Weight(0, 1), 4294967295u);
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(ProjectedGraphIo, EmptyInputGivesEmptyGraph) {
  std::stringstream in("# nothing\n");
  ProjectedGraph g = ReadProjectedGraph(in);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_TRUE(g.Empty());
}

TEST(Io, FileRoundTripThroughTempFile) {
  Hypergraph h;
  h.AddEdge({10, 20, 30}, 2);
  std::string path = testing::TempDir() + "/marioh_io_test.txt";
  WriteHypergraphFile(h, path);
  Hypergraph parsed = ReadHypergraphFile(path);
  EXPECT_EQ(parsed.Multiplicity({10, 20, 30}), 2u);
}

TEST(Io, HypergraphProjectionSurvivesSerialization) {
  // Project(parse(write(h))) == Project(h).
  Hypergraph h;
  h.AddEdge({0, 1, 2}, 3);
  h.AddEdge({2, 3}, 1);
  std::stringstream buffer;
  WriteHypergraph(h, buffer);
  Hypergraph parsed = ReadHypergraph(buffer);
  auto a = h.Project().Edges();
  auto b = parsed.Project().Edges();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].weight, b[i].weight);
  }
}

}  // namespace
}  // namespace marioh::io
